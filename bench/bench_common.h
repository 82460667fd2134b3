#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "alloc_core/resilient_manager.h"
#include "core/fault_inject.h"
#include "core/registry.h"
#include "core/stack_builder.h"
#include "core/result_table.h"
#include "core/utils.h"
#include "core/validating_manager.h"
#include "gpu/device.h"
#include "gpu/watchdog.h"
#include "trace/trace_export.h"
#include "trace/trace_format.h"
#include "trace/trace_recorder.h"
#include "trace/tracing_manager.h"
#include "workloads/alloc_perf.h"

namespace gms::bench {

/// Common CLI of every bench binary, mirroring the paper artifact's scripts
/// (Table 2): -t/--allocators selector, --mem-mb, --threads, --iters,
/// --csv, plus per-bench extras parsed from the same argument list.
struct BenchArgs {
  std::vector<std::string> allocators;
  std::size_t mem_mb = 256;   ///< manageable memory per manager (paper: 8 GB)
  std::size_t threads = 0;    ///< 0 = bench-specific default
  unsigned iters = 0;         ///< 0 = bench-specific default
  unsigned num_sms = 8;       ///< more SMs = more hash-scatter entropy
  double timeout_s = 10;  // per-case soft cap (paper: 1 h)
  std::string csv;
  bool warp = false;
  std::size_t range_lo = 4, range_hi = 8192;
  std::string phase = "all";  ///< bench_graph: init / update / all
  std::uint32_t scale = 32;   ///< graph down-scale factor
  unsigned max_exp = 14;      ///< bench_scaling: threads up to 2^max_exp
  /// bench_alloc_size: "ms" (wall clock), "atomics" or "backoffs" per call.
  /// Wall clock on a single-core host compresses contention differences;
  /// the counters expose them directly (see DESIGN.md §1).
  std::string metric = "ms";
  /// --stack=SPEC: explicit decorator stack, outermost first, every token
  /// with optional "{k=v}" knobs — e.g. "fault{mode=nth,n=7}>validate"
  /// (on top of every -t cell) or "warpagg{slab=16}>Halloc" (full spec
  /// incl. base). See cell_stack() for how a cell's stack is folded.
  std::string stack;
  /// --config "{k=v,...}": base-allocator config overrides applied to every
  /// -t cell (and to a --stack spec without its own "{...}" suffix). Keys
  /// are checked against each cell's ConfigSchema in parse_args; a cell's
  /// own "Name{k=v}" (in -t or --stack) wins over this flag.
  std::string config;
  /// --smoke: bench-specific quick mode (bench_warpagg: one rep, fewer
  /// rounds, implies the CI speedup gate).
  bool smoke = false;
  /// --min-speedup X: bench_warpagg exits non-zero when any manager's
  /// adaptive "+W" convergent-churn speedup falls below X (0 = no gate).
  double min_speedup = 0;
  /// --reps N: paired A/B repetitions per cell (0 = bench default). The
  /// speedup estimator is the median of per-rep ratios, so odd counts
  /// give a true middle element.
  unsigned reps = 0;
  /// --watchdog-ms=N: cancel a launch after N ms without scheduler progress
  /// (0 = off). Surfaces as the paper's "timed out / unstable" outcome.
  double watchdog_ms = 0;
  /// bench_table1 --measure-stability: churn each manager under a validate
  /// stage + watchdog and compare the measured outcome against the
  /// paper-reported `stable` trait.
  bool measure_stability = false;
  /// --json FILE: machine-readable output (bench_simt writes BENCH_simt.json
  /// here; bench_oom / bench_fragmentation / bench_survey reuse the same
  /// `{"bench": ..., "cases": [...]}` shape).
  std::string json;
  /// --trace FILE: record every allocation call into a .gmtrace file (one
  /// file per traced device; sweeping benches insert a cell tag before the
  /// extension). bench_replay reads the same flag as its input trace.
  std::string trace;
  /// --chrome FILE: also export the recording as chrome://tracing JSON.
  std::string chrome;
  /// --occupancy FILE: also export the heap-occupancy/fragmentation CSV.
  std::string occupancy;
  /// Write any still-pending recording when a ManagedDevice is destroyed
  /// (tagged with the allocator name), so --trace works on every bench
  /// without per-bench wiring. Not a CLI flag: bench_survey clears it to
  /// keep capture failure-only.
  bool trace_auto_write = true;
  // ---- bench_survey (crash-contained sweep) flags ----------------------
  /// --deadline-s S: parent-side wall clock per cell attempt before SIGKILL.
  double deadline_s = 20;
  /// --retries N: extra attempts for transient verdicts (crash / timeout).
  unsigned retries = 1;
  /// --rlimit-mb N: child RLIMIT_AS (0 = unlimited) — drives the oom verdict.
  std::size_t rlimit_mb = 4096;
  /// --quarantine FILE: where the skip-list lives between sweeps.
  std::string quarantine = "results/quarantine.json";
  /// --retry-quarantined: run quarantined cells anyway (heal or re-confirm).
  bool retry_quarantined = false;
  /// --hostile: add the deliberately crashing/hanging/corrupting stubs to
  /// the population, to demonstrate containment.
  bool hostile = false;
  /// --workloads LIST: comma list from {churn, frag, oom}.
  std::string workloads = "churn,frag,oom";
  /// --soak N: bench_survey soak mode — N rounds of fault-schedule campaigns
  /// per (allocator, workload) cell; failing cells auto-save + minimize
  /// their trace into the corpus directory. 0 = regular sweep.
  unsigned soak = 0;
  /// --corpus DIR: the adversarial regression corpus. bench_survey soak
  /// writes minimized failures here; bench_replay --corpus sweeps it.
  std::string corpus;
  // ---- bench_tune (replay-driven config auto-tuner) flags --------------
  /// --generations N: evolutionary rounds after the grid-seed sweep.
  unsigned generations = 3;
  /// --population N: offspring bred per evolutionary round.
  unsigned population = 10;
  /// --tune-seed S: SplitMix64 seed for the tuner's mutation/crossover RNG.
  std::uint64_t tune_seed = 0x7A3E5EEDull;
  /// --traces DIR: workload recordings (tune.<Name>.gmtrace per manager,
  /// falling back to the pre.<Name>.gmtrace oracle naming). The committed
  /// results/tuning corpus was recorded with request sizes that straddle
  /// each manager's default ladder/page/relay boundaries, so its knobs
  /// have real work to win back (results/tuning/README.md).
  std::string traces = "results/tuning";
  /// --tuned-dir DIR: where the winning configs are written (one
  /// "<Name>{k=v,...}" line per pair, directly usable as a -t argument).
  std::string tuned_dir = "results/tuned";
  // ---- bench_service (multi-device AllocService) flags -----------------
  /// --devices N: device shards in the service fleet.
  unsigned devices = 2;
  /// --tenants N: tenant streams (priority = tenant id).
  unsigned tenants = 4;
  /// --quota '{bytes=N,ops=N,bucket=N,refill=N,budget=N}': per-tenant
  /// admission defaults + round budget (QuotaSpec's schema; bench_service
  /// checks it).
  std::string quota;
  /// --shed-policy hash|rr: deterministic tenant→shard placement.
  std::string shed_policy = "hash";

  [[nodiscard]] std::size_t heap_bytes() const { return mem_mb << 20; }
};

/// The one stack a -t cell runs. The cell is itself a spec ("Halloc+V",
/// "XMalloc{num_classes=11}"); a stage-only --stack goes on top of its
/// stages, so a stage given both ways is the parser's duplicate-stage
/// error, and a --stack with its own base replaces the cell. --config
/// applies to a base without its own "{...}", and a trace stage goes in
/// front whenever --trace names a file and the spec has none.
inline core::StackSpec cell_stack(const BenchArgs& args,
                                  const std::string& name) {
  core::StackSpec spec =
      core::StackSpec::parse(args.stack.empty() ? name : args.stack);
  if (spec.base.empty()) spec = core::StackSpec::parse(args.stack + ">" + name);
  if (!args.config.empty() && spec.base_config.empty()) {
    spec.base_config = core::parse_config_overrides(args.config);
  }
  if (!args.trace.empty() && !spec.has(core::StackSpec::Stage::kTrace)) {
    spec.stages.insert(spec.stages.begin(),
                       {core::StackSpec::Stage::kTrace, {}});
  }
  return spec;
}

inline BenchArgs parse_args(int argc, char** argv,
                            const char* default_selector = "all") {
  core::register_all_allocators();
  BenchArgs args;
  std::string selector = default_selector;
  // Both "--flag value" and "--flag=value" spellings are accepted.
  std::string inline_val;
  bool has_inline = false;
  auto need = [&](int& i) -> std::string {
    if (has_inline) {
      has_inline = false;
      return inline_val;
    }
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    has_inline = false;
    if (flag.rfind("--", 0) == 0) {
      if (const auto eq = flag.find('='); eq != std::string::npos) {
        inline_val = flag.substr(eq + 1);
        flag = flag.substr(0, eq);
        has_inline = true;
      }
    }
    if (flag == "-t" || flag == "--allocators") {
      selector = need(i);
    } else if (flag == "--mem-mb") {
      args.mem_mb = std::stoull(need(i));
    } else if (flag == "--threads" || flag == "-num") {
      args.threads = std::stoull(need(i));
    } else if (flag == "--iters" || flag == "-iter") {
      args.iters = static_cast<unsigned>(std::stoul(need(i)));
    } else if (flag == "--sms") {
      args.num_sms = static_cast<unsigned>(std::stoul(need(i)));
    } else if (flag == "--timeout-s") {
      args.timeout_s = std::stod(need(i));
    } else if (flag == "--csv") {
      args.csv = need(i);
    } else if (flag == "--warp") {
      args.warp = true;
    } else if (flag == "--range") {
      const std::string r = need(i);
      const auto dash = r.find('-');
      args.range_lo = std::stoull(r.substr(0, dash));
      args.range_hi = std::stoull(r.substr(dash + 1));
    } else if (flag == "--phase") {
      args.phase = need(i);
    } else if (flag == "--scale") {
      args.scale = static_cast<std::uint32_t>(std::stoul(need(i)));
    } else if (flag == "--max-exp") {
      args.max_exp = static_cast<unsigned>(std::stoul(need(i)));
    } else if (flag == "--metric") {
      args.metric = need(i);
    } else if (flag == "--stack") {
      args.stack = need(i);
    } else if (flag == "--config") {
      args.config = need(i);
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--min-speedup") {
      args.min_speedup = std::stod(need(i));
    } else if (flag == "--reps") {
      args.reps = static_cast<unsigned>(std::stoul(need(i)));
    } else if (flag == "--soak") {
      args.soak = static_cast<unsigned>(std::stoul(need(i)));
    } else if (flag == "--corpus") {
      args.corpus = need(i);
    } else if (flag == "--watchdog-ms") {
      args.watchdog_ms = std::stod(need(i));
    } else if (flag == "--measure-stability") {
      args.measure_stability = true;
    } else if (flag == "--json") {
      args.json = need(i);
    } else if (flag == "--trace") {
      args.trace = need(i);
    } else if (flag == "--chrome") {
      args.chrome = need(i);
    } else if (flag == "--occupancy") {
      args.occupancy = need(i);
    } else if (flag == "--deadline-s") {
      args.deadline_s = std::stod(need(i));
    } else if (flag == "--retries") {
      args.retries = static_cast<unsigned>(std::stoul(need(i)));
    } else if (flag == "--rlimit-mb") {
      args.rlimit_mb = std::stoull(need(i));
    } else if (flag == "--quarantine") {
      args.quarantine = need(i);
    } else if (flag == "--retry-quarantined") {
      args.retry_quarantined = true;
    } else if (flag == "--hostile") {
      args.hostile = true;
    } else if (flag == "--workloads") {
      args.workloads = need(i);
    } else if (flag == "--generations") {
      args.generations = static_cast<unsigned>(std::stoul(need(i)));
    } else if (flag == "--population") {
      args.population = static_cast<unsigned>(std::stoul(need(i)));
    } else if (flag == "--tune-seed") {
      args.tune_seed = std::stoull(need(i));
    } else if (flag == "--traces") {
      args.traces = need(i);
    } else if (flag == "--tuned-dir") {
      args.tuned_dir = need(i);
    } else if (flag == "--devices") {
      args.devices = static_cast<unsigned>(std::stoul(need(i)));
    } else if (flag == "--tenants") {
      args.tenants = static_cast<unsigned>(std::stoul(need(i)));
    } else if (flag == "--quota") {
      args.quota = need(i);
    } else if (flag == "--shed-policy") {
      args.shed_policy = need(i);
    } else if (flag == "-h" || flag == "--help") {
      std::cout
          << "common flags: -t o+s+h+c+r+x | SPEC,SPEC  --mem-mb N  "
             "--threads N  --iters N  --sms N  --csv file  --warp  "
             "--range LO-HI  --timeout-s S  --phase init|update|all  "
             "--scale N  --max-exp N  --stack SPEC  "
             "--config \"{k=v,...}\"  --watchdog-ms N  --json FILE  "
             "--trace FILE.gmtrace  --chrome FILE  --occupancy FILE\n"
             "stack SPECs: '>'-separated stages outermost first from "
             "{trace, fault, validate, warpagg, resilient}, ending in a base "
             "allocator name whose +V, +R and +W suffixes are the validate, "
             "resilient and warpagg stages directly above it (Halloc+R+V = "
             "validate>resilient>Halloc). Each -t cell is a SPEC; a --stack "
             "without a base goes on top of every cell, one with a base "
             "replaces them. Every token takes \"{k=v,...}\" knobs, e.g. "
             "resilient{retries=2}>fault{mode=nth,n=7}>"
             "ScatterAlloc{page_size=8192}\n"
             "stage knobs: fault{mode=none|nth|prob|budget,n=N,p=P,seed=S,"
             "budget=BYTES}  resilient{retries=N,backoff=B,seed=S,"
             "reserve=PCT,breaker=N,decay=N}  warpagg{enter=N,exit=N,"
             "dwell=N,sample=N,probe=N,slab=KB}  (trace, validate: none)\n"
             "bench_warpagg: --smoke (quick CI gate)  --min-speedup X  "
             "--reps N\n"
             "bench_tune: --generations N  --population N  --tune-seed S  "
             "--traces DIR  --tuned-dir DIR  --reps N  --smoke  "
             "--min-speedup X\n"
             "bench_survey: --deadline-s S  --retries N  --rlimit-mb N  "
             "--quarantine FILE  --retry-quarantined  --hostile  "
             "--workloads churn,frag,oom  --soak N  --corpus DIR\n"
             "bench_service: --devices N  --tenants N  "
             "--quota \"{bytes=N,ops=N,bucket=N,refill=N,budget=N}\"  "
             "--shed-policy hash|rr\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag " << flag << " (try --help)\n";
      std::exit(2);
    }
    if (has_inline) {
      std::cerr << flag << " does not take a value\n";
      std::exit(2);
    }
  }
  // Malformed specs and rejected knobs are a CLI contract: one-line
  // message, exit 2 — not an uncaught throw out of ManagedDevice later.
  // Every cell's folded stack is checked, so --stack and --config are
  // judged against exactly the bases they will reach.
  try {
    (void)core::parse_config_overrides(args.config);
    if (!args.stack.empty()) (void)core::StackSpec::parse(args.stack);
    args.allocators = core::Registry::instance().select(selector);
    for (const auto& name : args.allocators) {
      const auto spec = cell_stack(args, name);
      core::Registry::instance().check_config(spec.base, spec.base_config);
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
  return args;
}

/// Inserts a cell tag before the path's extension:
/// ("results/t.gmtrace", "Ouro-16") -> "results/t.Ouro-16.gmtrace". Slashes
/// in the tag become dashes so allocator names never add directories.
inline std::string tagged_path(const std::string& path, std::string tag) {
  if (tag.empty()) return path;
  for (char& c : tag) {
    if (c == '/' || c == '\\') c = '-';
  }
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + tag;
  }
  return path.substr(0, dot) + "." + tag + path.substr(dot);
}

/// The stack that runs a -t cell validated: cell_stack with a validate
/// stage directly above the cell's own stages ("XMalloc{num_classes=11}"
/// runs as "validate>XMalloc{num_classes=11}", "Halloc+R" as "Halloc+R+V").
/// A cell that already validates, or a --stack that names a base or a
/// validate, resilient or warpagg stage, wins: the stack comes back as
/// cell_stack gives it. Stacks of the transparent trace and fault
/// observers alone (bench_survey's soak rounds) still get the validator.
inline core::StackSpec validated_cell(const BenchArgs& args,
                                      const std::string& name) {
  using Stage = core::StackSpec::Stage;
  const core::StackSpec spec = cell_stack(args, name);
  if (spec.has(Stage::kValidate)) return spec;
  if (!args.stack.empty()) {
    const auto stack = core::StackSpec::parse(args.stack);
    if (!stack.base.empty() || stack.has(Stage::kResilient) ||
        stack.has(Stage::kWarpAgg)) {
      return spec;
    }
  }
  return cell_stack(args, "validate>" + name);
}

/// One measurement's fresh cell (core::StackCell: device, stack, warm-up;
/// cold start parity across managers, as the paper's per-test processes
/// provide) over the cell's stack (cell_stack, or a spec the bench folded
/// itself), e.g. TracingManager( FaultInjector( ValidatingManager( inner ) ) )
/// — faults are injected above the validator so an injected nullptr never
/// reaches redzone bookkeeping, and the tracer sits outermost so a recorded
/// stream shows exactly the request/response sequence the kernel observed,
/// injected faults included. On top it adds the bench outputs: a trace
/// stage records from the end of the warm-up, and --trace, --chrome and
/// --occupancy write that recording.
class ManagedDevice {
 public:
  ManagedDevice(const BenchArgs& args, const std::string& name)
      : ManagedDevice(args, cell_stack(args, name)) {}

  ManagedDevice(const BenchArgs& args, const core::StackSpec& spec)
      : cell_(spec, args.heap_bytes(), args.num_sms, args.watchdog_ms) {
    if (!args.trace.empty()) {
      trace_path_ = args.trace;
      chrome_path_ = args.chrome;
      occupancy_path_ = args.occupancy;
      trace_auto_write_ = args.trace_auto_write;
    }
    if (stack().recorder != nullptr) stack().recorder->set_enabled(true);
  }

  ~ManagedDevice() {
    // Benches that don't write per-cell traces themselves still honour
    // --trace: flush the pending recording, tagged with the stack's name.
    if (trace_auto_write_ && !trace_written_) {
      try {
        write_trace_outputs(stack().name);
      } catch (...) {
        // Losing the trace beats terminating the bench mid-teardown.
      }
    }
  }

  gpu::Device& dev() { return cell_.dev(); }
  core::MemoryManager& mgr() { return cell_.mgr(); }
  /// The built stack: its layers, recorder and identity name.
  [[nodiscard]] const core::BuiltStack& stack() const { return cell_.stack(); }

  /// Drains the recording (if --trace was given) and writes the .gmtrace
  /// file plus any requested exports, tagging each path with `tag` so
  /// sweeping benches keep one file per cell. No-op without --trace.
  void write_trace_outputs(const std::string& tag = "") {
    // A --stack spec with a trace stage but no --trace path records (the
    // stage is live for replay digests) but has nowhere to write.
    trace::TraceRecorder* const recorder = stack().recorder.get();
    if (recorder == nullptr || trace_path_.empty()) return;
    recorder->set_enabled(false);
    const auto events = recorder->drain();
    trace::TraceHeader header;
    header.dropped = recorder->dropped();
    header.heap_bytes = cell_.heap_bytes();
    header.arena_bytes = dev().arena().size();
    header.num_sms = dev().config().num_sms;
    header.warp_size = gpu::kWarpSize;
    header.kernel_launches =
        static_cast<std::uint32_t>(dev().session_launches());
    header.threads_launched = dev().session_threads_launched();
    header.set_allocator(stack().name);
    const std::string path = tagged_path(trace_path_, tag);
    trace::write_trace(path, header, events);
    std::cout << "(trace written to " << path << ": " << events.size()
              << " events, " << header.dropped << " dropped)\n";
    const trace::Trace trace{header, events};
    if (!chrome_path_.empty()) {
      trace::write_chrome_trace(tagged_path(chrome_path_, tag), trace);
    }
    if (!occupancy_path_.empty()) {
      trace::write_occupancy_csv(tagged_path(occupancy_path_, tag), trace);
    }
    trace_written_ = true;
    recorder->set_enabled(true);
  }

  /// End-of-case summary of the active decorators (no-op without a fault,
  /// validate or resilient layer).
  void print_report(std::ostream& os, bool leaks_are_errors = false) {
    const core::BuiltStack& s = stack();
    if (s.injector != nullptr) {
      os << "[fault"
         << core::format_config(core::FaultSpec::config_schema().serialize(
                s.injector->spec()))
         << "] injected " << s.injector->injected_failures() << " of "
         << s.injector->calls() << " mallocs\n";
    }
    if (s.validator != nullptr) {
      os << s.validator->drain_report(leaks_are_errors).to_string() << "\n";
    }
    if (s.resilient != nullptr) {
      os << "[resilient"
         << core::format_config(
                core::ResilienceSpec::config_schema().serialize(
                    s.resilient->spec()))
         << "] " << s.resilient->report().to_string() << "\n";
    }
  }

 private:
  core::StackCell cell_;
  std::string trace_path_, chrome_path_, occupancy_path_;  ///< --trace et al.
  bool trace_auto_write_ = true;
  bool trace_written_ = false;
};

/// bench_table1's stability churn: the cell under a validate stage
/// (validated_cell) with the watchdog armed (falling back to --timeout-s),
/// `default_threads` 4–256 B allocations (--threads overrides) for 4
/// iterations (--iters overrides). Returns the measured verdict: "ok",
/// "corrupt(N)" for N validation errors, "timeout" or "crash".
inline std::string measure_stability(const BenchArgs& args,
                                     const std::string& name,
                                     std::size_t default_threads) {
  BenchArgs sub = args;
  if (sub.watchdog_ms <= 0) sub.watchdog_ms = sub.timeout_s * 1000.0;
  try {
    ManagedDevice md(sub, validated_cell(args, name));
    work::AllocPerfParams p;
    p.num_allocs = args.threads != 0 ? args.threads : default_threads;
    p.size_min = 4;
    p.size_max = 256;
    p.iterations = args.iters != 0 ? args.iters : 4;
    (void)work::run_alloc_perf(md.dev(), md.mgr(), p);
    const auto report = md.stack().validator->drain_report(false);
    return report.clean() ? "ok"
                          : "corrupt(" + std::to_string(report.total()) + ")";
  } catch (const gpu::LaunchTimeout&) {
    return "timeout";
  } catch (const std::exception&) {
    return "crash";
  }
}

/// The paper's size ladder: powers of two from lo to hi.
inline std::vector<std::size_t> pow2_sizes(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> sizes;
  for (std::size_t s = core::ceil_pow2(lo); s <= hi; s *= 2) {
    sizes.push_back(s);
  }
  return sizes;
}

inline void emit(const core::ResultTable& table, const BenchArgs& args,
                 const std::string& title) {
  std::cout << "\n## " << title << "\n\n";
  table.print_markdown(std::cout);
  if (!args.csv.empty()) {
    table.write_csv_file(args.csv);
    std::cout << "\n(csv written to " << args.csv << ")\n";
  }
}

}  // namespace gms::bench
