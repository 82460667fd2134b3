// Crash-contained survey sweep: every (allocator × workload) cell runs in a
// fork()ed child with an rlimit-bounded address space and a parent-side
// deadline, so one crashing / hanging / heap-corrupting manager cannot take
// down the matrix — its fate becomes the cell's verdict instead (the paper's
// "unstable" outcomes as first-class survey data). After every kernel the
// cell runs MemoryManager::audit(); a corrupt heap downgrades an apparently
// successful cell to validation-error. Verdicts land in results/survey.json,
// persistently-bad cells in results/quarantine.json (skipped next sweep
// unless --retry-quarantined). --hostile adds the deliberately misbehaving
// stub allocators to demonstrate the containment.
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "core/json_writer.h"
#include "core/stub_allocators.h"
#include "core/survey_runner.h"
#include "replay_cell.h"
#include "trace/corpus.h"
#include "trace/trace_minimizer.h"
#include "workloads/fragmentation.h"

namespace {

using namespace gms;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Post-kernel audit bookkeeping for one cell. Returns empty on a sound
/// heap, the failure description otherwise.
struct AuditTally {
  std::uint64_t audits = 0;
  std::uint64_t structures = 0;

  std::string check(core::MemoryManager& mgr) {
    const auto a = mgr.audit();
    ++audits;
    structures += a.structures_walked;
    if (a.supported && !a.ok) return a.to_string();
    return {};
  }

  [[nodiscard]] std::string summary() const {
    return std::to_string(audits) + " audits over " +
           std::to_string(structures) + " structures";
  }
};

/// Builds the per-cell device + manager inside the forked child. When
/// `prefer_twin`, the cell runs the manager's registered "+V" validated twin
/// (redzones, shadow bitmap) when one exists, so heap damage surfaces as
/// validation errors rather than silent misbehaviour. The oom cell opts out:
/// exhaustion-scale allocation counts overflow the validator's live-pointer
/// table (a harness capacity limit, not corruption), and the twin's
/// per-block redzone overhead would distort the utilisation data anyway.
bench::ManagedDevice make_cell_device(const bench::BenchArgs& args,
                                      const std::string& name,
                                      bool prefer_twin) {
  bench::BenchArgs local = args;
  // Capture is failure-only here: with_failure_trace writes the trace for
  // doomed cells; a clean cell's recording is discarded at teardown.
  local.trace_auto_write = false;
  const bool twin =
      prefer_twin && core::Registry::instance().find(name + "+V") != nullptr;
  return bench::ManagedDevice(local,
                              twin ? bench::validated_cell(args, name) : name);
}

/// Returns empty when the validation report is clean (or no validator is
/// active), else the report text.
std::string drain_validation(bench::ManagedDevice& md) {
  if (md.validator() == nullptr) return {};
  const auto report = md.validator()->drain_report(/*leaks_are_errors=*/false);
  if (report.clean()) return {};
  return report.to_string();
}

/// Runs one cell body, saving the cell's allocation trace when it fails —
/// a non-zero outcome (failed audit, validation report) or an exception
/// unwinding to the fork boundary (the watchdog's LaunchTimeout). The
/// .gmtrace of the doomed cell lands next to survey.json, tagged with the
/// cell key, ready for bench_replay. Cells the kernel kills outright
/// (SIGSEGV, the parent's SIGKILL) die before this code runs, so their
/// traces are lost — a documented limitation of in-process capture.
template <typename Body>
core::CellOutcome with_failure_trace(bench::ManagedDevice& md,
                                     const std::string& key, Body body) {
  const auto capture = [&] {
    if (md.recorder() == nullptr) return;
    try {
      md.write_trace_outputs(key);
    } catch (...) {
      // Best-effort: the verdict must survive even if the disk write fails.
    }
  };
  try {
    core::CellOutcome out = body();
    if (out.exit_code != 0) capture();
    return out;
  } catch (...) {
    capture();
    throw;
  }
}

// ---- cell bodies (each runs inside the forked child) -----------------------

/// Alloc/free churn with an audit after EVERY kernel: the core contract the
/// survey runner exists to enforce.
core::CellOutcome churn_cell(const bench::BenchArgs& args,
                             const std::string& name) {
  auto md = make_cell_device(args, name, /*prefer_twin=*/true);
  return with_failure_trace(md, name + "-churn", [&]() -> core::CellOutcome {
  auto& mgr = md.mgr();
  const std::size_t threads = args.threads != 0 ? args.threads : 2048;
  const unsigned iters = args.iters != 0 ? args.iters : 2;
  const bool warp_only = mgr.traits().warp_level_only;
  const bool can_free =
      mgr.traits().supports_free && mgr.traits().individual_free;

  std::vector<void*> ptrs(threads, nullptr);
  AuditTally tally;
  core::SplitMix64 size_rng(0xC411);
  for (unsigned it = 0; it < iters; ++it) {
    const std::size_t size = size_rng.range(args.range_lo,
                                            std::min<std::size_t>(
                                                args.range_hi, 1024));
    md.dev().launch_n(threads, [&](gpu::ThreadCtx& t) {
      void* p = warp_only ? mgr.warp_malloc(t, size) : mgr.malloc(t, size);
      if (p != nullptr) {
        // Touch the whole payload so redzone/canary damage is earned, not
        // hypothetical.
        auto* bytes = static_cast<std::byte*>(p);
        for (std::size_t b = 0; b < size; ++b) {
          bytes[b] = static_cast<std::byte>(t.thread_rank());
        }
      }
      ptrs[t.thread_rank()] = p;
    });
    if (auto why = tally.check(mgr); !why.empty()) return {40, why};

    if (can_free) {
      md.dev().launch_n(threads, [&](gpu::ThreadCtx& t) {
        mgr.free(t, ptrs[t.thread_rank()]);
      });
    } else if (warp_only) {
      md.dev().launch_n(threads,
                        [&](gpu::ThreadCtx& t) { mgr.warp_free_all(t); });
    }
    if (auto why = tally.check(mgr); !why.empty()) return {40, why};
    std::fill(ptrs.begin(), ptrs.end(), nullptr);
  }
  if (auto report = drain_validation(md); !report.empty()) {
    return {40, report};
  }
  return {0, tally.summary()};
  });
}

core::CellOutcome frag_cell(const bench::BenchArgs& args,
                            const std::string& name) {
  auto md = make_cell_device(args, name, /*prefer_twin=*/true);
  return with_failure_trace(md, name + "-frag", [&]() -> core::CellOutcome {
  const std::size_t threads = args.threads != 0 ? args.threads : 2048;
  const unsigned iters = args.iters != 0 ? args.iters : 2;
  AuditTally tally;
  const auto r = work::run_fragmentation(md.dev(), md.mgr(), threads,
                                         args.range_lo, iters);
  if (auto why = tally.check(md.mgr()); !why.empty()) return {40, why};
  if (auto report = drain_validation(md); !report.empty()) {
    return {40, report};
  }
  return {0, "max_range=" + std::to_string(r.max_range) + ", " +
                 tally.summary()};
  });
}

core::CellOutcome oom_cell(const bench::BenchArgs& args,
                           const std::string& name) {
  auto md = make_cell_device(args, name, /*prefer_twin=*/false);
  return with_failure_trace(md, name + "-oom", [&]() -> core::CellOutcome {
  const std::size_t threads = args.threads != 0 ? args.threads : 1024;
  AuditTally tally;
  const auto r = work::run_oom(md.dev(), md.mgr(), threads, args.range_lo,
                               args.heap_bytes(), args.timeout_s);
  // The heap must stay structurally sound even at (and past) exhaustion —
  // including after a watchdog-cancelled launch near the OOM edge.
  if (auto why = tally.check(md.mgr()); !why.empty()) return {40, why};
  if (auto report = drain_validation(md); !report.empty()) {
    return {40, report};
  }
  return {0, "achieved=" + std::to_string(r.achieved) +
                 (r.timed_out ? " (timed out)" : "") + ", " +
                 tally.summary()};
  });
}

// ---- soak mode (--soak N): adversarial campaigns + auto-minimization -------

/// Deterministic per-round fault schedule: probabilistic flakes, every-Nth
/// failures and a byte-budget cliff rotate across rounds, each seeded by the
/// round index so a failing round can be re-run bit-identically.
core::FaultSpec soak_fault(unsigned round, std::size_t heap_bytes) {
  switch (round % 3) {
    case 0:
      return core::FaultSpec::parse("prob:0.02:" +
                                    std::to_string(0x50AC + round));
    case 1:
      return core::FaultSpec::parse("nth:" + std::to_string(64 + 32 * round));
    default:
      return core::FaultSpec::parse("budget:" +
                                    std::to_string(heap_bytes / 2));
  }
}

core::CellOutcome run_workload_cell(const bench::BenchArgs& args,
                                    const std::string& workload,
                                    const std::string& name) {
  if (workload == "churn") return churn_cell(args, name);
  if (workload == "frag") return frag_cell(args, name);
  if (workload == "oom") return oom_cell(args, name);
  return {2, "unknown workload " + workload};
}

/// Each (allocator, workload) cell endures `--soak N` rounds under the
/// rotating fault schedules, every round fork-contained. A non-ok round's
/// auto-saved .gmtrace is re-probed through the corpus replay oracle (same
/// fork containment); if the failure reproduces, the trace is greedily
/// minimized against that oracle and committed to the corpus with its
/// replay-measured verdict pinned — the artifact CI re-checks for drift.
/// Failures that only manifest in the live workload (or crashes, whose
/// traces die with the child) are reported but not committed.
int run_soak(const bench::BenchArgs& args,
             const std::vector<std::string>& workloads) {
  const std::string corpus_dir =
      args.corpus.empty() ? "results/corpus" : args.corpus;
  core::SurveyRunner runner({.max_retries = 0,
                             .deadline_s = args.deadline_s,
                             .rlimit_mb = args.rlimit_mb,
                             .persist_quarantine = false});
  core::ResultTable table(
      {"Cell", "rounds", "failures", "reproduced", "committed"});
  core::BenchJson json("soak");
  json.meta()
      .num("rounds", args.soak)
      .str("corpus", corpus_dir)
      .num("heap_bytes", args.heap_bytes())
      .num("num_sms", args.num_sms);

  unsigned total_failures = 0, total_committed = 0;
  for (const auto& name : args.allocators) {
    for (const auto& workload : workloads) {
      const std::string key = name + "/" + workload;
      unsigned failures = 0, reproduced = 0, committed = 0;
      for (unsigned round = 0; round < args.soak; ++round) {
        bench::BenchArgs local = args;
        local.fault = soak_fault(round, args.heap_bytes());
        local.trace = "results/soak/r" + std::to_string(round) + ".gmtrace";
        const auto verdict = runner.probe_cell([&]() -> core::CellOutcome {
          return run_workload_cell(local, workload, name);
        });
        if (verdict == core::Verdict::kOk) continue;
        ++failures;
        std::cout << key << " r" << round << " ["
                  << local.fault.to_string()
                  << "]: " << core::to_string(verdict) << "\n";

        const std::string saved =
            bench::tagged_path(local.trace, name + "-" + workload);
        trace::Trace failing;
        try {
          failing = trace::read_trace(saved);
        } catch (const std::exception& e) {
          // Crashed cells die before the in-child capture can flush.
          std::cout << "  no trace to minimize (" << e.what() << ")\n";
          continue;
        }
        const std::string stack =
            (workload == "oom" ? "resilient>" : "resilient>validate>") + name;
        const auto oracle = [&](const trace::Trace& t) {
          return runner.probe_cell([&]() -> core::CellOutcome {
            return bench::replay_verdict_cell(t, stack, args.num_sms);
          });
        };
        // Pin the verdict the REPLAY reproduces, which is what CI can
        // re-check — it may legitimately differ from the live cell's (an
        // rlimit oom in the workload resurfaces as failed mallocs here).
        const auto rv = oracle(failing);
        if (rv == core::Verdict::kOk) {
          std::cout << "  not reproducible through replay under " << stack
                    << " — not committed\n";
          continue;
        }
        ++reproduced;
        const auto min = trace::minimize_trace(failing, rv, oracle);
        const std::string file =
            name + "-" + workload + "-r" + std::to_string(round) + ".gmtrace";
        trace::write_trace(corpus_dir + "/" + file, min.trace.header,
                           min.trace.events);
        trace::CorpusEntry entry;
        entry.file = file;
        entry.stack = stack;
        entry.expected = rv;
        entry.source = "soak";
        entry.note = "round " + std::to_string(round) + " fault " +
                     local.fault.to_string() + ", cell verdict " +
                     core::to_string(verdict) + ", minimized " +
                     std::to_string(min.original_ops) + "->" +
                     std::to_string(min.minimized_ops) + " ops in " +
                     std::to_string(min.probes) + " probes";
        trace::corpus_add(corpus_dir, entry);
        ++committed;
        std::cout << "  minimized " << min.original_ops << " -> "
                  << min.minimized_ops << " ops (" << min.probes
                  << " probes), committed as " << file << " [replay verdict "
                  << core::to_string(rv) << "]\n";
      }
      total_failures += failures;
      total_committed += committed;
      table.add_row({key, std::to_string(args.soak),
                     std::to_string(failures), std::to_string(reproduced),
                     std::to_string(committed)});
      json.add_case()
          .str("name", key)
          .num("rounds", args.soak)
          .num("failures", failures)
          .num("reproduced", reproduced)
          .num("committed", committed);
    }
  }

  bench::emit(table, args,
              "Soak campaign — " + std::to_string(args.soak) +
                  " fault-schedule rounds per cell, corpus at " + corpus_dir);
  if (!args.json.empty()) json.write(args.json);
  std::cout << "\nsoak: " << total_failures << " failing rounds, "
            << total_committed << " minimized traces committed\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::parse_args(argc, argv);
  if (args.mem_mb == 256) args.mem_mb = 64;  // per-cell heap; sweeps are wide
  if (args.timeout_s > args.deadline_s / 2) {
    args.timeout_s = args.deadline_s / 2;  // oom soft cap inside the deadline
  }
  if (args.watchdog_ms <= 0) {
    // The in-child watchdog fires first (with a diagnosis naming the stuck
    // lane); the parent's SIGKILL is the backstop for cells that never reach
    // a yield point.
    args.watchdog_ms = args.deadline_s * 1000.0 / 2;
  }
  if (args.trace.empty()) {
    // Every cell records into its child-local ring; only failing cells
    // write the file (with_failure_trace), tagged "<allocator>-<workload>",
    // so a crash report always ships with a replayable request stream.
    args.trace = "results/failed-cell.gmtrace";
  }
  if (args.hostile) {
    core::register_stub_allocators();
    for (const char* stub : {"CrashStub", "HangStub", "CorruptStub"}) {
      args.allocators.emplace_back(stub);
    }
  }
  const auto workloads = split_csv(args.workloads);
  if (workloads.empty()) {
    std::cerr << "--workloads must name at least one of churn,frag,oom\n";
    return 2;
  }
  if (args.soak > 0) return run_soak(args, workloads);

  core::SurveyRunner runner({.max_retries = args.retries,
                             .deadline_s = args.deadline_s,
                             .rlimit_mb = args.rlimit_mb,
                             .quarantine_path = args.quarantine,
                             .retry_quarantined = args.retry_quarantined});
  if (runner.quarantined_count() > 0) {
    std::cout << "(" << runner.quarantined_count() << " quarantined cells"
              << (args.retry_quarantined ? ", retrying" : " will be skipped")
              << " — " << args.quarantine << ")\n";
  }

  std::vector<std::string> columns{"Allocator"};
  for (const auto& w : workloads) columns.push_back(w);
  core::ResultTable table(columns);

  for (const auto& name : args.allocators) {
    std::vector<std::string> row{name};
    for (const auto& workload : workloads) {
      const std::string key = name + "/" + workload;
      const auto res = runner.run_cell(key, [&]() -> core::CellOutcome {
        if (workload == "churn") return churn_cell(args, name);
        if (workload == "frag") return frag_cell(args, name);
        if (workload == "oom") return oom_cell(args, name);
        return {2, "unknown workload " + workload};
      });
      std::string cell = core::to_string(res.verdict);
      if (res.skipped_quarantined) cell += " (q)";
      if (res.attempts > 1) cell += " x" + std::to_string(res.attempts);
      row.push_back(std::move(cell));
      std::cout << res.to_string() << "\n";
    }
    table.add_row(std::move(row));
  }

  bench::emit(table, args, "Survey verdict matrix (fork-contained cells)");
  std::cout << "\nsummary:";
  for (const auto& [verdict, count] : runner.summary()) {
    std::cout << " " << verdict << "=" << count;
  }
  std::cout << "  (quarantined: " << runner.quarantined_count() << ")\n";

  runner.write_survey_json(args.json.empty() ? "results/survey.json"
                                             : args.json);
  return 0;
}
