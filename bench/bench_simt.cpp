// Simulator performance baseline: times the SIMT engine itself (not the
// allocators). Emits the human table plus BENCH_simt.json, the repo's
// recorded perf trajectory: reruns after engine changes compare each case's
// `ms` and the sweep's speedup over the seed anchor (DESIGN.md §7). Each
// engine case also records the exact scheduler counters of its timed
// launches (lane_switches, collectives, block_barriers, backoffs): no case
// shares state across blocks, so they repeat at any SM count and CI
// compares them with the committed file.
//
// Cases:
//   launch_floor          empty launches — fixed per-launch overhead
//   lane_switch           backoff() storms — fiber context-switch throughput
//   collective_convergent full-warp reduce_add loops — group resolution
//   collective_divergent  half-warp groups — divergent coalescing
//   barrier               sync_block loops — block-wide release scans
//   alloc_sweep_10k       the headline: bench_table1's stability sweep
//                         (validated churn over the -t selection; pass
//                         -t o+s+h+c+r+x+a+f+b to match the seed anchor)
#include <atomic>
#include <chrono>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/json_writer.h"

namespace {

using namespace gms;

/// Sink that keeps kernel-side arithmetic observable without perturbing the
/// scheduling being measured.
std::atomic<std::uint64_t> g_sink{0};

double time_ms(const std::function<void()>& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

gpu::GpuConfig engine_cfg(const bench::BenchArgs& args) {
  return gpu::GpuConfig{.num_sms = args.num_sms, .lane_stack_bytes = 32 * 1024};
}

/// One timed case run: its wall time and, for engine cases, the summed
/// counters of its timed launches.
struct Run {
  double ms = 0.0;
  std::optional<gpu::StatsCounters> counters;
};

/// Times `launches` launches of two 256-lane blocks per SM on one fresh
/// device, summing their counters.
template <typename Kernel>
Run time_launches(const bench::BenchArgs& args, const Kernel& kernel,
                  unsigned launches = 1) {
  gpu::Device dev(1u << 20, engine_cfg(args));
  gpu::StatsCounters counters;
  const double ms = time_ms([&] {
    for (unsigned i = 0; i < launches; ++i) {
      counters += dev.launch(args.num_sms * 2, 256, kernel).counters;
    }
  });
  return {ms, counters};
}

// ---- engine microbenches (no allocator involved) ------------------------

Run bench_launch_floor(const bench::BenchArgs& args) {
  return time_launches(args, [](gpu::ThreadCtx&) {}, 256);
}

Run bench_lane_switch(const bench::BenchArgs& args) {
  return time_launches(args, [](gpu::ThreadCtx& ctx) {
    for (unsigned i = 0; i < 32; ++i) ctx.backoff();
  });
}

Run bench_collective_convergent(const bench::BenchArgs& args) {
  return time_launches(args, [](gpu::ThreadCtx& ctx) {
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < 64; ++i) {
      acc += ctx.reduce_add(std::uint64_t{1});
    }
    g_sink.fetch_add(acc, std::memory_order_relaxed);
  });
}

Run bench_collective_divergent(const bench::BenchArgs& args) {
  return time_launches(args, [](gpu::ThreadCtx& ctx) {
    std::uint64_t acc = 0;
    // Half-warp branch: two coalesced groups per warp must assemble per
    // iteration, the worst case for group-formation bookkeeping.
    if (ctx.lane_id() < gpu::kWarpSize / 2) {
      for (unsigned i = 0; i < 64; ++i) {
        acc += ctx.reduce_add(std::uint64_t{1});
      }
    } else {
      for (unsigned i = 0; i < 64; ++i) {
        acc += ctx.reduce_add(std::uint64_t{2});
      }
    }
    g_sink.fetch_add(acc, std::memory_order_relaxed);
  });
}

Run bench_barrier(const bench::BenchArgs& args) {
  return time_launches(args, [](gpu::ThreadCtx& ctx) {
    for (unsigned i = 0; i < 64; ++i) ctx.sync_block();
  });
}

// ---- the headline: bench_table1's validated 10k-alloc sweep -------------

Run bench_alloc_sweep(const bench::BenchArgs& args) {
  // No counters: the managers' shared state makes them follow how the SMs
  // interleave.
  return {time_ms([&] {
    // Timeouts/crashes count against the sweep's wall clock like any other
    // outcome; the stability verdict itself is bench_table1's job.
    for (const auto& name : args.allocators) {
      (void)bench::measure_stability(args, name, 10'000);
    }
  }), std::nullopt};
}

struct Case {
  std::string name;
  Run (*run)(const bench::BenchArgs&);
  /// Run once untimed first. A process's first devices fault in fresh
  /// lane-stack pages that later devices reuse, which can double a short
  /// engine case; the seconds-long sweep is timed cold, like its anchor.
  bool warm_up = true;
};

void write_json(const std::string& path, const bench::BenchArgs& args,
                const std::vector<Case>& cases, const std::vector<Run>& runs) {
  // Trajectory anchor: the same sweep (bench_table1 --measure-stability
  // --threads 10000 --iters 4, the 17 allocators of selector
  // o+s+h+c+r+x+a+f+b, 8 SMs) measured at the seed commit, before the
  // bitmask scheduler and the zero-fill-on-demand arena landed. Compare
  // only runs over that same population.
  constexpr double kSeedSweepMs = 5075.0;
  const double sweep_ms = runs.back().ms;
  core::BenchJson json("simt");
  json.meta()
      .num("num_sms", args.num_sms)
      .num("sweep_threads", args.threads != 0 ? args.threads : 10'000)
      .num("sweep_allocators", args.allocators.size())
      .raw("table1_sweep_trajectory",
           core::JsonFields{}
               .num("seed_ms", kSeedSweepMs)
               .num("now_ms", sweep_ms)
               .num("speedup_vs_seed",
                    sweep_ms > 0 ? kSeedSweepMs / sweep_ms : 0)
               .render());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    auto& row =
        json.add_case().str("name", cases[i].name).num("ms", runs[i].ms);
    if (const auto& c = runs[i].counters) {
      row.num("lane_switches", c->lane_switches)
          .num("collectives", c->collectives)
          .num("block_barriers", c->block_barriers)
          .num("backoffs", c->backoffs);
    }
  }
  json.write(path);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);

  const std::vector<Case> cases = {
      {"launch_floor", bench_launch_floor},
      {"lane_switch", bench_lane_switch},
      {"collective_convergent", bench_collective_convergent},
      {"collective_divergent", bench_collective_divergent},
      {"barrier", bench_barrier},
      {"alloc_sweep_10k", bench_alloc_sweep, /*warm_up=*/false},
  };

  core::ResultTable table({"case", "ms"});
  std::vector<Run> runs;
  for (const auto& c : cases) {
    if (c.warm_up) (void)c.run(args);
    runs.push_back(c.run(args));
    table.add_row({c.name, core::ResultTable::fmt_ms(runs.back().ms)});
  }

  bench::emit(table, args, "SIMT engine");
  write_json(args.json.empty() ? "BENCH_simt.json" : args.json, args, cases,
             runs);
  return 0;
}
