#include "tuning/replay_eval.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "trace/trace_replay.h"

namespace gms::tuning {

double parse_ms_detail(const std::string& detail, double fallback) {
  const auto pos = detail.find("ms=");
  if (pos == std::string::npos) return fallback;
  return std::strtod(detail.c_str() + pos + 3, nullptr);
}

ReplayEvaluator::ReplayEvaluator(std::string manager, trace::Trace trace,
                                 ReplayEvalOptions opts)
    : manager_(std::move(manager)),
      trace_(std::move(trace)),
      opts_(opts),
      runner_({.deadline_s = opts.deadline_s,
               .rlimit_mb = opts.rlimit_mb,
               .persist_quarantine = false}) {}

EvalResult ReplayEvaluator::operator()(const core::ConfigKV& overrides) const {
  const auto probe = runner_.probe_cell_detail([&]() -> core::CellOutcome {
    core::StackSpec spec;
    spec.base = manager_;
    spec.base_config = overrides;
    // Every rep replays the workload against a *fresh* manager: the cold
    // carve/probe/walk work is exactly where config choices bite, and a
    // warm manager would hide it behind recycled free-list state. The
    // median over cold reps is the score; the first rep that fails (a
    // dirty audit, or a geometry that cannot hold the workload) is the
    // candidate's verdict, and its time is never read.
    std::vector<double> times;
    std::uint64_t mallocs = 0;
    const unsigned reps = std::max(1u, opts_.reps);
    for (unsigned r = 0; r < reps; ++r) {
      const auto v = trace::replay_verdict_cell(trace_, spec, opts_.num_sms,
                                                opts_.watchdog_ms);
      if (v.outcome.exit_code != core::SurveyRunner::kExitOk) return v.outcome;
      times.push_back(v.result.elapsed_ms);
      mallocs += v.result.mallocs;
    }
    std::sort(times.begin(), times.end());
    std::ostringstream os;
    os << "ms=" << times[times.size() / 2] << ";mallocs=" << mallocs
       << ";reps=" << reps;
    return {core::SurveyRunner::kExitOk, os.str()};
  });

  EvalResult out;
  out.verdict = probe.verdict;
  out.detail = probe.detail;
  // The replayed median from the pipe; the fork's own wall clock only as a
  // degenerate fallback (it still orders candidates sanely if a cell ever
  // omits the field).
  out.ms = parse_ms_detail(probe.detail, probe.ms);
  return out;
}

}  // namespace gms::tuning
