#pragma once

// The churn cell bench_warpagg and bench_resilience share: one fresh
// core::StackCell, one churn launch of num_sms * 4 blocks x 256 lanes, each
// lane running `rounds` malloc / store / free rounds of 32–256 B requests.
// Both benches read the same kernel, so their base_failed columns line up.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "alloc_core/resilient_manager.h"
#include "alloc_core/warp_aggregator.h"
#include "allocators/ouroboros.h"
#include "bench_common.h"
#include "core/resilience.h"
#include "core/warpagg.h"

namespace gms::bench {

/// How the lanes of a warp request memory in one round.
///  * convergent — all 32 lanes allocate the same size together;
///  * divergent — a rotating third of the lanes sits each round out, so an
///    aggregating layer sees partial masks and smaller groups;
///  * mixed — per-lane sizes rotate across four classes inside one warp.
enum class ChurnRegime : unsigned { kConvergent, kDivergent, kMixed };
inline constexpr const char* kChurnRegimeNames[] = {"convergent", "divergent",
                                                    "mixed"};

struct ChurnResult {
  double ms = 0;               ///< wall clock of the churn launch
  std::uint64_t mallocs = 0;   ///< requests issued (exact per regime)
  std::uint64_t failed = 0;    ///< nullptrs the kernel saw
  gpu::StatsCounters counters;  ///< the churn launch's instrumentation
  /// Pages an Ouroboros base lost to failed bounded-ring enqueues
  /// (leaked_pages_host) once the churn drained; empty for other bases.
  std::optional<std::uint64_t> leaked_pages;
  core::AggregationReport agg;  ///< zero without a warpagg stage
  core::ResilienceReport rep;   ///< zero without a resilient stage
};

namespace churn_detail {

inline constexpr std::size_t kSizes[4] = {32, 64, 128, 256};

inline bool participates(ChurnRegime w, unsigned lane, unsigned r) {
  return w != ChurnRegime::kDivergent || (lane + r) % 3 != 0;
}

inline std::size_t round_size(ChurnRegime w, unsigned lane, unsigned r) {
  return w == ChurnRegime::kMixed ? kSizes[(lane + r) % 4] : kSizes[r % 4];
}

}  // namespace churn_detail

/// Builds `spec` on a fresh cell (args' heap, SMs and watchdog) and runs one
/// churn launch in `regime`. A warp-level-only base churns through
/// warp_malloc plus a warp_free_all per round instead of individual frees.
inline ChurnResult run_churn_cell(const BenchArgs& args,
                                  const std::string& spec, ChurnRegime regime,
                                  unsigned rounds) {
  using churn_detail::participates;
  using churn_detail::round_size;
  core::StackCell cell(core::StackSpec::parse(spec), args.heap_bytes(),
                       args.num_sms, args.watchdog_ms);
  core::MemoryManager& mgr = cell.mgr();
  const bool warp_only = mgr.traits().warp_level_only;
  std::atomic<std::uint64_t> failed{0};

  const auto t0 = std::chrono::steady_clock::now();
  const auto stats = cell.dev().launch(
      args.num_sms * 4, 256,
      [&mgr, &failed, rounds, regime, warp_only](gpu::ThreadCtx& ctx) {
        const unsigned lane = ctx.lane_id();
        for (unsigned r = 0; r < rounds; ++r) {
          if (!participates(regime, lane, r)) continue;
          const std::size_t size = round_size(regime, lane, r);
          void* p = warp_only ? mgr.warp_malloc(ctx, size)
                              : mgr.malloc(ctx, size);
          if (p == nullptr) {
            failed.fetch_add(1, std::memory_order_relaxed);
          } else {
            *static_cast<std::uint32_t*>(p) = ctx.thread_rank();
            if (!warp_only) mgr.free(ctx, p);
          }
          if (warp_only) mgr.warp_free_all(ctx);
        }
      });
  const auto t1 = std::chrono::steady_clock::now();

  ChurnResult res;
  res.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::uint64_t per_warp = 0;
  for (unsigned lane = 0; lane < gpu::kWarpSize; ++lane) {
    for (unsigned r = 0; r < rounds; ++r) {
      if (participates(regime, lane, r)) ++per_warp;
    }
  }
  res.mallocs = std::uint64_t{args.num_sms} * 4 * 256 / gpu::kWarpSize *
                per_warp;
  res.failed = failed.load();
  res.counters = stats.counters;
  // The Ouroboros page-leak audit reads the base under every layer.
  if (auto* ouro = dynamic_cast<alloc::Ouroboros*>(cell.stack().base)) {
    res.leaked_pages = ouro->leaked_pages_host();
  }
  if (cell.stack().aggregator != nullptr) {
    res.agg = cell.stack().aggregator->report();
  }
  if (cell.stack().resilient != nullptr) {
    res.rep = cell.stack().resilient->report();
  }
  return res;
}

}  // namespace gms::bench
