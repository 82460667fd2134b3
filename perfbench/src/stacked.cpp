// stacked: six managers, one per distinct slow path, each under the full
// stage stack at 2 SMs. Warp aggregation only arms under cross-SM
// contention, so this is the one workload at 2 SMs. Three phases per
// manager and pass: churn rounds recorded by the trace stage, exhaustion
// waves on a small heap, and a replay of the recording onto a fresh copy
// of the stack.
#include <map>

#include "bench.h"
#include "call_counter.h"
#include "churn.h"
#include "core/registry.h"
#include "core/validating_manager.h"
#include "alloc_core/resilient_manager.h"
#include "alloc_core/warp_aggregator.h"
#include "trace/trace_format.h"
#include "trace/trace_replay.h"
#include "workloads/fragmentation.h"

namespace perfbench {

namespace trace = gms::trace;
namespace work = gms::work;

namespace {

/// XMalloc: list heap. ScatterAlloc: hashed pages. Halloc: >3 KiB relay.
/// Ouro-P-S: bounded page queues. CUDA: serialized large path. HostExtent:
/// the host planner lock.
const char* const kManagers[] = {"XMalloc", "ScatterAlloc", "Halloc",
                                 "Ouro-P-S", "CUDA",        "HostExtent"};
constexpr const char* kStages = "trace>validate>resilient>warpagg>";

constexpr unsigned kSms = 2;
/// 16,384 lanes make each kernel long enough (about 10 ms) that waking the
/// two SM threads is a small part of it.
constexpr std::uint64_t kThreads = 16384;
constexpr unsigned kRounds = 4;
/// The churn heap must hold one round's live set under the stages. The
/// tightest manager is ScatterAlloc: it keeps a quarter of its heap for
/// multi-page runs, and with the validator's redzones the 2, 4 and 8 KiB
/// steps take 1, 2 and 3 pages, about 34 MB per round. 256 MiB gives it
/// 60 MiB of runs; at 128 MiB (28 MiB of runs) its rounds fail.
constexpr std::size_t kHeap = std::size_t{256} << 20;
/// Exhaustion: 4,096-lane waves of 256 B until a malloc returns nullptr.
/// The slowest path, XMalloc under all four stages, grows much faster than
/// the heap (0.3 s at 8 MiB, 2.7 s at 10 MiB, 5-11 s at 12 MiB on a 4-core
/// host); 10 MiB keeps it about half of a pass.
constexpr std::size_t kExhaustHeap = std::size_t{10} << 20;
constexpr std::uint64_t kExhaustThreads = 4096;
constexpr std::size_t kExhaustSize = 256;
constexpr std::size_t kArenaSlack = std::size_t{8} << 20;

std::unique_ptr<gpu::Device> make_device(std::size_t heap) {
  return std::make_unique<gpu::Device>(heap + kArenaSlack,
                                       gpu::GpuConfig{.num_sms = kSms});
}

/// One stack on a fresh device, built and warmed up as set-up.
struct Cell {
  std::unique_ptr<gpu::Device> dev;
  core::BuiltStack stack;
};

Cell make_cell(Run& run, const std::string& step, const std::string& spec,
               std::size_t heap) {
  return run.setup(step, [&] {
    Cell c{make_device(heap), {}};
    c.stack = run.build(*c.dev, spec, heap);
    warm_up(run, *c.dev, kThreads);
    return c;
  });
}

/// Fails the run on a dirty validator report.
void check_validator(Cell& c, const std::string& what) {
  if (c.stack.validator == nullptr) return;
  const auto rep = c.stack.validator->drain_report(false);
  check(rep.clean(), what + ": " + rep.to_string());
}

/// Churn rounds on one stack. With `recorded`, the trace stage records
/// them, and each round's events are drained into their own entry: the
/// rings hold 2^16 events per SM.
struct RoundsResult {
  double kernel_ms = 0;
  std::vector<double> round_ms, malloc_ms, free_ms;
  gpu::StatsCounters counters;
  std::uint64_t ops = 0, mallocs = 0, failed = 0;
};

RoundsResult churn_rounds(Run& run, Cell& c,
                          const std::vector<std::vector<std::uint32_t>>& rounds,
                          const std::string& cell,
                          std::vector<std::vector<trace::TraceEvent>>* recorded) {
  RoundsResult out;
  std::vector<void*> ptrs;
  auto* rec = c.stack.recorder.get();
  if (rec != nullptr) rec->set_enabled(recorded != nullptr);
  for (const auto& sizes : rounds) {
    const auto r = churn_round(run, *c.dev, *c.stack.manager, sizes, ptrs,
                               cell);
    out.kernel_ms += r.ms();
    out.round_ms.push_back(r.ms());
    out.malloc_ms.push_back(r.malloc.elapsed_ms);
    out.free_ms.push_back(r.free.elapsed_ms);
    out.counters += r.malloc.counters;
    out.counters += r.free.counters;
    out.ops += r.ops;
    out.mallocs += sizes.size();
    out.failed += r.failed;
    if (recorded != nullptr) recorded->push_back(rec->drain());
  }
  if (rec != nullptr) {
    rec->set_enabled(false);
    check(rec->dropped() == 0, cell + ": the trace stage dropped events");
  }
  return out;
}

struct ExhaustResult {
  double seconds = 0;
  work::OomResult oom;
  CallCounter::Counts calls;
  core::ResilienceReport resilience;
};

ExhaustResult exhaust(Run& run, const std::string& spec) {
  auto c = make_cell(run, spec + "/exhaust", spec, kExhaustHeap);
  CallCounter counter(*c.stack.manager, kSms);
  ExhaustResult out;
  {
    auto s = run.spans.open("workloads", "run_oom");
    const auto t0 = Run::Clock::now();
    out.oom = work::run_oom(*c.dev, counter, kExhaustThreads, kExhaustSize,
                            kExhaustHeap, 120);
    out.seconds = Run::seconds_since(t0);
    check(!out.oom.timed_out, spec + ": exhaustion did not reach nullptr");
  }
  out.calls = counter.totals();
  if (c.stack.resilient != nullptr) out.resilience = c.stack.resilient->report();
  check_validator(c, spec + " exhaustion");
  run.audit(*c.stack.manager, spec);
  return out;
}

/// Per manager, over the run.
struct ManagerStats {
  std::vector<double> round_ms, malloc_ms, free_ms;
};

/// The stage ladder of the traced run: each rung adds one stage over the
/// bare manager, so consecutive rungs price one stage each.
void stage_ladder(Run& run, const std::vector<std::vector<std::uint32_t>>& rounds,
                  Report& rep) {
  auto s = run.spans.open("bench", "stage_ladder");
  static const char* const kRungs[] = {
      "", "warpagg>", "resilient>warpagg>", "validate>resilient>warpagg>",
      "trace>validate>resilient>warpagg>"};
  constexpr std::size_t kN = std::size(kRungs);
  double churn_ms[kN] = {}, exhaust_s[kN] = {};
  double atomics[kN] = {}, ops[kN] = {};
  for (std::size_t k = 0; k < kN; ++k) {
    for (const char* name : kManagers) {
      const std::string spec = std::string(kRungs[k]) + name;
      auto c = make_cell(run, spec, spec, kHeap);
      std::vector<std::vector<trace::TraceEvent>> recorded;
      const auto r = churn_rounds(run, c, rounds, spec,
                                  c.stack.recorder ? &recorded : nullptr);
      churn_ms[k] += median(r.round_ms);
      atomics[k] += static_cast<double>(r.counters.atomic_total());
      ops[k] += static_cast<double>(r.ops);
      if (k == 2 || k == 3) exhaust_s[k] += exhaust(run, spec).seconds;
    }
  }
  rep.add("alloc_core.warpagg.tax_pct", tax_pct(churn_ms[1], churn_ms[0]), "%");
  rep.add("alloc_core.resilient.tax_pct", tax_pct(churn_ms[2], churn_ms[1]),
          "%");
  rep.add("core.validate.tax_pct", tax_pct(churn_ms[3], churn_ms[2]), "%");
  rep.add("core.validate.exhaust_tax_pct", tax_pct(exhaust_s[3], exhaust_s[2]),
          "%");
  rep.add("core.validate.atomics_added_per_op",
          per_op(atomics[3], ops[3]) - per_op(atomics[2], ops[2]), "count");
  rep.add("trace.record_tax_pct", tax_pct(churn_ms[4], churn_ms[3]), "%");
}

}  // namespace

Report run_stacked(Run& run) {
  core::register_all_allocators();
  std::map<std::string, ManagerStats> stats;
  std::vector<double> kernel_ms;
  gpu::StatsCounters counters;
  std::uint64_t churn_ops = 0, events = 0, dropped = 0;
  std::uint64_t agg_lanes = 0, pass_lanes = 0, switches = 0;
  std::uint64_t unrecovered = 0, exhaust_rescued = 0, exhaust_escaped = 0;
  std::uint64_t replay_ops = 0;
  double replay_s = 0, exhaust_s = 0;
  std::vector<double> fill_pct;
  std::uint64_t host_backoffs = 0, host_ops = 0;
  std::map<std::string, double> calls;
  std::vector<std::vector<std::uint32_t>> rounds;

  auto workload_span = run.spans.open("bench", "stacked");
  while (run.next_pass()) {
    rounds = run.setup(
        "sizes", [&] { return churn_sizes(run.opt.seed, kThreads, kRounds); });
    for (const char* name : kManagers) {
      auto cell_span = run.spans.open("bench", "cell");
      const std::string spec = std::string(kStages) + name;
      auto& ms = stats[name];
      const bool host = core::Registry::instance().find(name)->traits.host_based;
      const std::string layer = host ? "hostalloc" : "allocators";

      // Phase 1: churn rounds, recorded.
      std::vector<std::vector<trace::TraceEvent>> live;
      {
        auto phase = run.spans.open("bench", "churn");
        auto c = make_cell(run, spec + "/churn", spec, kHeap);
        const auto r = churn_rounds(run, c, rounds, name, &live);
        run.mallocs += r.mallocs;
        run.failed_mallocs += r.failed;
        ms.round_ms.insert(ms.round_ms.end(), r.round_ms.begin(),
                           r.round_ms.end());
        ms.malloc_ms.insert(ms.malloc_ms.end(), r.malloc_ms.begin(),
                            r.malloc_ms.end());
        ms.free_ms.insert(ms.free_ms.end(), r.free_ms.begin(), r.free_ms.end());
        kernel_ms.insert(kernel_ms.end(), r.malloc_ms.begin(), r.malloc_ms.end());
        kernel_ms.insert(kernel_ms.end(), r.free_ms.begin(), r.free_ms.end());
        counters += r.counters;
        churn_ops += r.ops;
        if (host) {
          host_backoffs += r.counters.backoffs;
          host_ops += r.ops;
        }
        calls[layer + ".calls.malloc"] += static_cast<double>(r.mallocs);
        calls[layer + ".calls.free"] += static_cast<double>(r.ops - r.mallocs);
        run.throughput.add(spec + "/churn", static_cast<double>(r.ops),
                           r.kernel_ms / 1e3);
        for (const auto& round : live) events += round.size();
        dropped += c.stack.recorder->dropped();
        const auto agg = c.stack.aggregator->report();
        agg_lanes += agg.lanes_served;
        pass_lanes += agg.passthrough_calls;
        switches += agg.switches_to_agg + agg.switches_to_pass;
        const auto res = c.stack.resilient->report();
        unrecovered += res.unrecovered;
        check(res.unrecovered == 0, spec + ": unrecovered failure in churn");
        check(r.failed == 0, spec + ": malloc returned nullptr in churn");
        check_validator(c, spec + " churn");
        run.audit(*c.stack.manager, spec);
      }

      // Phase 2: exhaustion waves on a small heap.
      {
        auto phase = run.spans.open("bench", "exhaust");
        const auto e = exhaust(run, spec);
        exhaust_s += e.seconds;
        fill_pct.push_back(e.oom.percent_of_baseline());
        exhaust_rescued +=
            e.resilience.retry_successes + e.resilience.fallback_allocs;
        exhaust_escaped += e.resilience.unrecovered;
        calls[layer + ".calls.malloc"] += static_cast<double>(e.calls.mallocs);
        run.throughput.add(spec + "/exhaust",
                           static_cast<double>(e.calls.ops()), e.seconds);
      }

      // Phase 3: replay of the recording onto a fresh copy of the stack,
      // one round at a time, re-recorded so each round's request digest can
      // be compared with the live run's.
      {
        auto phase = run.spans.open("bench", "replay");
        auto c = make_cell(run, spec + "/replay", spec, kHeap);
        std::uint64_t ops = 0;
        double ms = 0;
        for (const auto& round : live) {
          trace::Trace recording;
          recording.events = round;
          trace::TraceReplayer replayer(recording);
          c.stack.recorder->set_enabled(true);
          trace::ReplayResult r;
          {
            auto s = run.spans.open("trace", "replay");
            r = replayer.replay(*c.dev, *c.stack.manager);
          }
          c.stack.recorder->set_enabled(false);
          const auto again = c.stack.recorder->drain();
          check(c.stack.recorder->dropped() == 0,
                spec + ": the trace stage dropped replayed events");
          check(trace::canonical_digest(again) ==
                    trace::canonical_digest(round),
                spec + ": replay digest differs from the live run's");
          check(r.failed_mallocs == 0, spec + ": replayed malloc failed");
          run.mallocs += r.mallocs;
          run.failed_mallocs += r.failed_mallocs;
          ops += r.mallocs + r.frees + r.warp_free_alls;
          ms += r.elapsed_ms;
          calls[layer + ".calls.malloc"] += static_cast<double>(r.mallocs);
          calls[layer + ".calls.free"] +=
              static_cast<double>(r.frees + r.warp_free_alls);
        }
        check(c.stack.resilient->report().unrecovered == 0,
              spec + ": unrecovered failure in replay");
        replay_ops += ops;
        replay_s += ms / 1e3;
        run.throughput.add(spec + "/replay", static_cast<double>(ops), ms / 1e3);
        check_validator(c, spec + " replay");
        run.audit(*c.stack.manager, spec);
      }
    }
  }

  Report rep;
  rep.attempted = run.mallocs;
  rep.failed = run.failed_mallocs;
  std::vector<double> round_p50, malloc_p50, free_p50;
  for (const auto& [name, ms] : stats) {
    round_p50.push_back(median(ms.round_ms));
    malloc_p50.push_back(median(ms.malloc_ms));
    free_p50.push_back(median(ms.free_ms));
  }
  add_common_metrics(rep, run, geomean(round_p50));

  add_kernel_metrics(rep, counters, churn_ops, run.passes(), kernel_ms);
  rep.add("allocators.malloc_kernel_p50_ms", geomean(malloc_p50), "ms");
  rep.add("allocators.free_kernel_p50_ms", geomean(free_p50), "ms");
  double fill = 0;
  for (const double f : fill_pct) fill += f;
  rep.add("allocators.oom_fill_pct", fill / static_cast<double>(fill_pct.size()),
          "%");
  rep.add("allocators.exhaust_s", exhaust_s / run.passes(), "s");
  rep.add("hostalloc.backoffs_per_op",
          per_op(static_cast<double>(host_backoffs),
                 static_cast<double>(host_ops)),
          "count");
  rep.add("alloc_core.warpagg.aggregated_pct",
          share_pct(static_cast<double>(agg_lanes),
                    static_cast<double>(agg_lanes + pass_lanes)),
          "%");
  rep.add("alloc_core.warpagg.switches",
          static_cast<double>(switches) / run.passes(), "count");
  // Of the exhaustion requests the stage had to handle, the share it served
  // by retry or from its reserve; the rest escaped as nullptr.
  rep.add("alloc_core.resilient.recovered_pct",
          share_pct(static_cast<double>(exhaust_rescued),
                    static_cast<double>(exhaust_rescued + exhaust_escaped)),
          "%");
  rep.add("alloc_core.resilient.unrecovered", static_cast<double>(unrecovered),
          "count");
  rep.add("trace.events_per_op",
          per_op(static_cast<double>(events), static_cast<double>(churn_ops)),
          "count");
  rep.add("trace.dropped", static_cast<double>(dropped), "count");
  rep.add("trace.replay_ops_per_s",
          replay_s == 0 ? 0 : static_cast<double>(replay_ops) / replay_s,
          "ops/s");
  for (const auto& [call, n] : calls) rep.add(call, n, "count");
  if (run.opt.trace) {
    add_launch_floor(rep, run, kSms, kThreads, kernel_ms);
    stage_ladder(run, rounds, rep);
  }
  return rep;
}

}  // namespace perfbench
