#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/stack_builder.h"
#include "gpu/device.h"
#include "spans.h"
#include "stats.h"
#include "trace/trace_recorder.h"

namespace perfbench {

namespace core = gms::core;
namespace gpu = gms::gpu;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// An output check failed: the run exits non-zero and prints no metrics.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run measured. `metrics` holds both the end-to-end and
/// the per-layer figures; main() prints the set the mode asks for.
struct Report {
  std::uint64_t attempted = 0;  ///< mallocs attempted (the failed_pct base)
  std::uint64_t failed = 0;     ///< of those, nullptr (plus lost ops)
  double ops_per_s = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// State of one workload run: the pass loop, set-up and timed-phase
/// accounting, and the span log.
///
/// A workload repeats whole passes, each over every one of its cells,
/// until `seconds` of wall time have passed (and at least kMinPasses ran).
/// Every pass regenerates its inputs from the seed and builds fresh cells,
/// so each set-up step is measured once per pass.
class Run {
 public:
  static constexpr unsigned kMinPasses = 3;

  explicit Run(const Options& opt)
      : opt(opt), spans(opt.trace), start_(Clock::now()) {}

  const Options& opt;
  Spans spans;
  Throughput throughput;
  std::uint64_t mallocs = 0;
  std::uint64_t failed_mallocs = 0;

  /// Starts the next pass, or returns false when the run is over.
  bool next_pass() {
    if (passes_ >= kMinPasses && elapsed_s() >= opt.seconds) return false;
    ++passes_;
    return true;
  }
  [[nodiscard]] unsigned passes() const { return passes_; }

  /// Runs `f` and charges its wall time to set-up step `step` (a cell, or
  /// the input generation) of this pass.
  template <typename F>
  decltype(auto) setup(const std::string& step, F&& f) {
    struct Charge {
      Run* run;
      const std::string& step;
      Clock::time_point t0;
      ~Charge() { run->charge_setup(step, seconds_since(t0)); }
    } charge{this, step, Clock::now()};
    return std::forward<F>(f)();
  }

  /// Set-up of a median pass: the sum over set-up steps of each step's
  /// median over the passes, so a stall in one step of one pass moves it
  /// only through that step's median.
  [[nodiscard]] double setup_s() const {
    double s = 0;
    for (const auto& [step, per_pass] : setup_) s += median(per_pass.second);
    return s;
  }

  [[nodiscard]] double elapsed_s() const { return seconds_since(start_); }

  /// Builds `spec` over `dev` inside a core.build span.
  core::BuiltStack build(gpu::Device& dev, const std::string& spec,
                         std::size_t heap_bytes) {
    auto s = spans.open("core", "build");
    return core::StackBuilder(dev).build(spec, heap_bytes);
  }

  /// Device::launch_n inside a gpu.launch span.
  template <typename Kernel>
  gpu::LaunchStats launch(gpu::Device& dev, std::uint64_t n,
                          const Kernel& kernel) {
    auto s = spans.open("gpu", "launch");
    return dev.launch_n(n, kernel);
  }

  /// MemoryManager::audit inside a span of the manager's layer; a
  /// supported audit that finds corruption fails the run.
  void audit(core::MemoryManager& mgr, const std::string& cell) {
    auto s = spans.open(layer_of(mgr), "audit");
    const auto a = mgr.audit();
    check(!a.supported || a.ok, cell + ": " + a.to_string());
  }

  /// The src/ module a manager's code lives in.
  static std::string_view layer_of(core::MemoryManager& mgr) {
    return mgr.traits().host_based ? "hostalloc" : "allocators";
  }

  using Clock = std::chrono::steady_clock;
  static double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

 private:
  void charge_setup(const std::string& step, double seconds) {
    auto& [pass, per_pass] = setup_[step];
    if (per_pass.empty() || pass != passes_) {
      pass = passes_;
      per_pass.push_back(0);
    }
    per_pass.back() += seconds;
  }

  Clock::time_point start_;
  unsigned passes_ = 0;
  /// Per set-up step: the last pass it ran in, and its time in each pass.
  std::map<std::string, std::pair<unsigned, std::vector<double>>> setup_;
};

/// A fresh device plus the warm-up launch every cell makes before timing:
/// the first launch wires lane stacks and wakes the SM threads.
inline void warm_up(Run& run, gpu::Device& dev, std::uint64_t lanes) {
  run.launch(dev, lanes, [](gpu::ThreadCtx&) {});
}

/// Traced runs: `gpu.launch_floor_ms`, the median wall time of a no-op
/// launch_n of `lanes` lanes on a fresh device with `num_sms` SMs (the
/// simulator's floor under every kernel), and `gpu.sim_share_pct`, the
/// floor's share of the workload's `kernel_ms`.
void add_launch_floor(Report& rep, Run& run, unsigned num_sms,
                      std::uint64_t lanes, const std::vector<double>& kernel_ms);

/// The simulator and CAS counters of the benchmark's own timed kernels, per
/// allocation call, plus the kernels' tail latency.
void add_kernel_metrics(Report& rep, const gpu::StatsCounters& c,
                        std::uint64_t ops, unsigned passes,
                        const std::vector<double>& kernel_ms);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Appends the end-to-end metrics every workload shares.
void add_common_metrics(Report& rep, const Run& run, double p50_ms);

/// Adds `<prefix>_ms`, `<prefix>_pctl` and `<prefix>_samples`: the tail of
/// `ms` at the highest percentile with at least ten samples beyond it.
void add_tail(Report& rep, const std::string& prefix,
              const std::vector<double>& ms);

// ---- the four workloads ---------------------------------------------------
Report run_churn(Run& run);
Report run_stacked(Run& run);
Report run_apps(Run& run);
Report run_service(Run& run);

}  // namespace perfbench
