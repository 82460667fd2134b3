#pragma once

#include <string>

#include "core/survey_runner.h"
#include "trace/trace_format.h"
#include "tuning/tuner.h"

namespace gms::tuning {

/// Knobs for one replay-eval cell family.
struct ReplayEvalOptions {
  /// SMs for the replay device; 0 = the trace header's capture geometry.
  unsigned num_sms = 0;
  /// Replays per cell; the reported ms is the median, so timing noise in a
  /// single launch cannot crown a candidate. Odd counts give a true middle.
  unsigned reps = 3;
  double deadline_s = 30;        ///< parent-side wall clock per cell
  std::size_t rlimit_mb = 4096;  ///< child RLIMIT_AS (0 = unlimited)
  /// In-child scheduler watchdog. Generous: the fork's deadline_s is the
  /// real runaway guard, and a tight watchdog turns host-load hiccups into
  /// spurious timeout disqualifications (of the *baseline*, on a bad day).
  double watchdog_ms = 60000;
};

/// The tuner's EvalFn over a recorded workload: each call forks one
/// SurveyRunner cell that scores `manager` with the candidate overrides
/// through trace::replay_verdict_cell `reps` times, each on a fresh
/// StackCell, and reports the median replayed wall time back through the
/// detail pipe ("ms=<float>;mallocs=<n>;reps=<r>"). The SurveyRunner
/// taxonomy applies unchanged: crashes, watchdog timeouts, failed mallocs
/// (oom) and dirty audits (validation-error) come back as their verdicts,
/// with the failing rep's detail, and the tuner disqualifies them.
class ReplayEvaluator {
 public:
  /// `manager` must be a registered, configurable base name.
  ReplayEvaluator(std::string manager, trace::Trace trace,
                  ReplayEvalOptions opts = {});

  [[nodiscard]] EvalResult operator()(const core::ConfigKV& overrides) const;

 private:
  std::string manager_;
  trace::Trace trace_;
  ReplayEvalOptions opts_;
  core::SurveyRunner runner_;
};

/// Parses the "ms=<float>" field out of a replay cell's detail line;
/// returns `fallback` when absent (e.g. the cell crashed before reporting).
[[nodiscard]] double parse_ms_detail(const std::string& detail,
                                     double fallback);

}  // namespace gms::tuning
