// Simulator performance baseline: times the SIMT engine itself (not the
// allocators). Emits the human table plus BENCH_simt.json, the repo's
// recorded perf trajectory: reruns after engine changes compare each case's
// `ms` and the sweep's speedup over the seed anchor (DESIGN.md §7).
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
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/json_writer.h"
#include "gpu/watchdog.h"
#include "workloads/alloc_perf.h"

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

// ---- engine microbenches (no allocator involved) ------------------------

double bench_launch_floor(const bench::BenchArgs& args) {
  gpu::Device dev(1u << 20, engine_cfg(args));
  constexpr unsigned kLaunches = 256;
  return time_ms([&] {
    for (unsigned i = 0; i < kLaunches; ++i) {
      dev.launch(args.num_sms * 2, 256, [](gpu::ThreadCtx&) {});
    }
  });
}

double bench_lane_switch(const bench::BenchArgs& args) {
  gpu::Device dev(1u << 20, engine_cfg(args));
  return time_ms([&] {
    auto stats = dev.launch(args.num_sms * 2, 256, [](gpu::ThreadCtx& ctx) {
      for (unsigned i = 0; i < 32; ++i) ctx.backoff();
    });
    g_sink += stats.counters.lane_switches;
  });
}

double bench_collective_convergent(const bench::BenchArgs& args) {
  gpu::Device dev(1u << 20, engine_cfg(args));
  return time_ms([&] {
    dev.launch(args.num_sms * 2, 256, [](gpu::ThreadCtx& ctx) {
      std::uint64_t acc = 0;
      for (unsigned i = 0; i < 64; ++i) {
        acc += ctx.reduce_add(std::uint64_t{1});
      }
      g_sink.fetch_add(acc, std::memory_order_relaxed);
    });
  });
}

double bench_collective_divergent(const bench::BenchArgs& args) {
  gpu::Device dev(1u << 20, engine_cfg(args));
  return time_ms([&] {
    dev.launch(args.num_sms * 2, 256, [](gpu::ThreadCtx& ctx) {
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
  });
}

double bench_barrier(const bench::BenchArgs& args) {
  gpu::Device dev(1u << 20, engine_cfg(args));
  return time_ms([&] {
    dev.launch(args.num_sms * 2, 256, [](gpu::ThreadCtx& ctx) {
      for (unsigned i = 0; i < 64; ++i) ctx.sync_block();
    });
  });
}

// ---- the headline: bench_table1's validated 10k-alloc sweep -------------

double bench_alloc_sweep(const bench::BenchArgs& args) {
  return time_ms([&] {
    for (const auto& name : args.allocators) {
      bench::BenchArgs sub = args;
      if (sub.watchdog_ms <= 0) sub.watchdog_ms = sub.timeout_s * 1000.0;
      try {
        bench::ManagedDevice md(sub, bench::validated_cell(args, name));
        work::AllocPerfParams p;
        p.num_allocs = args.threads != 0 ? args.threads : 10'000;
        p.size_min = 4;
        p.size_max = 256;
        p.iterations = args.iters != 0 ? args.iters : 4;
        (void)work::run_alloc_perf(md.dev(), md.mgr(), p);
        (void)md.validator()->drain_report(false);
      } catch (const std::exception&) {
        // Timeouts/crashes count against the sweep's wall clock like any
        // other outcome; the stability verdict itself is bench_table1's job.
      }
    }
  });
}

struct Case {
  std::string name;
  double (*run)(const bench::BenchArgs&);
  /// Run once untimed first. A process's first devices fault in fresh
  /// lane-stack pages that later devices reuse, which can double a short
  /// engine case; the seconds-long sweep is timed cold, like its anchor.
  bool warm_up = true;
};

void write_json(const std::string& path, const bench::BenchArgs& args,
                const std::vector<Case>& cases, const std::vector<double>& ms) {
  // Trajectory anchor: the same sweep (bench_table1 --measure-stability
  // --threads 10000 --iters 4, the 17 allocators of selector
  // o+s+h+c+r+x+a+f+b, 8 SMs) measured at the seed commit, before the
  // bitmask scheduler and the zero-fill-on-demand arena landed. Compare
  // only runs over that same population.
  constexpr double kSeedSweepMs = 5075.0;
  const double sweep_ms = ms.back();
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
    json.add_case().str("name", cases[i].name).num("ms", ms[i]);
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
  std::vector<double> ms;
  for (const auto& c : cases) {
    if (c.warm_up) (void)c.run(args);
    ms.push_back(c.run(args));
    table.add_row({c.name, core::ResultTable::fmt_ms(ms.back())});
  }

  bench::emit(table, args, "SIMT engine");
  write_json(args.json.empty() ? "BENCH_simt.json" : args.json, args, cases,
             ms);
  return 0;
}
