#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace gms::core {

/// How one (allocator, workload, config) cell of the survey matrix ended.
/// The paper's central observation behind this taxonomy: several public GPU
/// allocators deadlock, crash, or corrupt their heap on parts of the test
/// matrix, and a survey must report *that* as a result — "allocator is slow"
/// and "allocator took down the run" are different rows of Table 1.
enum class Verdict : std::uint8_t {
  kOk,               ///< the cell ran and its checks passed
  kCrash,            ///< child died on a signal (SIGSEGV / SIGBUS / SIGABRT)
  kTimeout,          ///< parent deadline or in-child watchdog expired
  kOom,              ///< rlimit-bounded address space (or heap) exhausted
  kValidationError,  ///< validation report dirty or post-kernel audit failed
};

[[nodiscard]] constexpr const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kCrash: return "crash";
    case Verdict::kTimeout: return "timeout";
    case Verdict::kOom: return "oom";
    case Verdict::kValidationError: return "validation-error";
  }
  return "?";
}

/// Parses the verdict names to_string emits (quarantine files round-trip
/// through text). Unknown strings conservatively parse as kCrash.
[[nodiscard]] Verdict verdict_from_string(std::string_view s);

/// What the cell body reports back from inside the child process.
struct CellOutcome {
  int exit_code = 0;   ///< one of SurveyRunner::kExit*
  std::string detail;  ///< one line, shipped to the parent over the pipe
};

/// The parent-side record of one executed (or skipped) cell.
struct CellResult {
  std::string key;  ///< "allocator/workload[/config]"
  Verdict verdict = Verdict::kOk;
  int term_signal = 0;     ///< terminating signal for kCrash (0 if unknown)
  unsigned attempts = 0;   ///< child processes spawned (0 when skipped)
  double last_attempt_ms = 0;    ///< wall clock of the deciding attempt
  double total_backoff_ms = 0;   ///< backoff slept between retries
  bool skipped_quarantined = false;  ///< cell was on the quarantine list
  std::string detail;      ///< child's pipe message or parent's diagnosis

  [[nodiscard]] std::string to_string() const;
};

/// Crash-contained executor for the survey matrix. Every cell runs in a
/// fork()ed child with an rlimit-bounded address space and a parent-side
/// wall-clock deadline, so one bad (allocator, workload) pairing cannot take
/// down the sweep: the parent classifies the child's fate into a Verdict,
/// retries transient failures (crash, timeout) with exponential backoff plus
/// deterministic jitter, and quarantines cells that stay bad so later sweeps
/// skip them unless --retry-quarantined.
///
/// Child protocol: the cell body runs inside the child and returns a
/// CellOutcome; the runner writes the detail line to a pipe and _exit()s
/// with the outcome's code (no static destructors — the parent's Device
/// worker threads do not exist in the child). Exceptions escaping the body
/// are mapped for it: LaunchTimeout -> kExitTimeout, bad_alloc -> kExitOom,
/// any other std::exception -> kExitValidation. Signals need no mapping;
/// the kernel delivers them to waitpid() directly.
///
/// The runner itself is single-threaded host code; do not call run_cell
/// concurrently from several threads.
class SurveyRunner {
 public:
  // Child exit-code protocol (>= 40 keeps clear of EXIT_FAILURE and
  // sanitizer defaults; anything unrecognised classifies as a crash).
  static constexpr int kExitOk = 0;
  static constexpr int kExitValidation = 40;
  static constexpr int kExitOom = 41;
  static constexpr int kExitTimeout = 42;

  struct Options {
    /// Extra attempts after the first for transient verdicts (crash,
    /// timeout). OOM and validation errors are deterministic: no retry.
    unsigned max_retries = 2;
    double backoff_base_ms = 100;   ///< first retry sleeps about this long
    double backoff_factor = 2.0;    ///< exponential growth per retry
    double backoff_jitter = 0.25;   ///< max extra fraction, seeded hash
    std::uint64_t jitter_seed = 0x5EED;
    double deadline_s = 30;         ///< parent-side wall clock per attempt
    std::size_t rlimit_mb = 4096;   ///< child RLIMIT_AS; 0 = unlimited
    std::string quarantine_path = "results/quarantine.json";
    bool retry_quarantined = false; ///< run quarantined cells anyway
    bool persist_quarantine = true; ///< rewrite the file after the sweep
  };

  explicit SurveyRunner(Options opts);

  /// Runs one cell body in a contained child (or skips it when
  /// quarantined). The body must be safe to invoke in a freshly forked
  /// process: construct devices/managers inside it, never reuse the
  /// parent's. Returns the recorded result (also kept in results()).
  CellResult run_cell(const std::string& key,
                      const std::function<CellOutcome()>& body);

  /// One contained fork/classify cycle with no retries, no results()
  /// recording and no quarantine bookkeeping — the verdict oracle the trace
  /// minimizer and the corpus sweep invoke many times per cell. Same body
  /// contract as run_cell.
  [[nodiscard]] Verdict probe_cell(const std::function<CellOutcome()>& body) const;

  /// probe_cell plus the child's detail line and the attempt's wall clock —
  /// the tuner's measurement primitive (the cell body smuggles its replayed
  /// milliseconds out through the detail pipe as "ms=<float>;...").
  struct ProbeResult {
    Verdict verdict = Verdict::kOk;
    double ms = 0;       ///< parent-side wall clock of the whole attempt
    std::string detail;  ///< child's pipe message or parent's diagnosis
  };
  [[nodiscard]] ProbeResult probe_cell_detail(
      const std::function<CellOutcome()>& body) const;

  [[nodiscard]] const std::vector<CellResult>& results() const {
    return results_;
  }

  [[nodiscard]] bool is_quarantined(const std::string& key) const {
    return quarantine_.contains(key);
  }
  [[nodiscard]] std::size_t quarantined_count() const {
    return quarantine_.size();
  }

  /// Loads opts.quarantine_path (missing file = empty list). Returns the
  /// number of quarantined cells loaded.
  std::size_t load_quarantine();
  /// Rewrites opts.quarantine_path from the current quarantine set.
  void save_quarantine() const;

  /// Emits the machine-readable verdict matrix (results/survey.json):
  /// one entry per cell plus a per-verdict summary.
  void write_survey_json(const std::string& path) const;

  /// Per-verdict totals over results() (skipped cells count under their
  /// quarantined verdict).
  [[nodiscard]] std::map<std::string, std::size_t> summary() const;

  /// The deterministic backoff before retry `attempt` (1-based) of `key` —
  /// exponential in the attempt, plus seeded jitter so a fleet of sweeps
  /// does not retry in lockstep. Exposed for tests.
  [[nodiscard]] double backoff_ms(const std::string& key,
                                  unsigned attempt) const;

 private:
  struct QuarantineEntry {
    Verdict verdict = Verdict::kCrash;
    int term_signal = 0;
    unsigned attempts = 0;
    std::string detail;
  };

  struct Attempt {
    Verdict verdict = Verdict::kOk;
    int term_signal = 0;
    double ms = 0;
    std::string detail;
  };

  /// One fork/wait/classify cycle.
  Attempt run_attempt(const std::function<CellOutcome()>& body) const;

  Options opts_;
  std::vector<CellResult> results_;
  std::map<std::string, QuarantineEntry> quarantine_;
};

}  // namespace gms::core
