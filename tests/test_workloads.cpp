#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "core/registry.h"
#include "core/stack_builder.h"
#include "core/utils.h"
#include "workloads/alloc_perf.h"
#include "workloads/fragmentation.h"
#include "workloads/workgen.h"

namespace gms::work {
namespace {

using core::Registry;
using gpu::Device;
using gpu::GpuConfig;

Device& dev() {
  static Device device(128u << 20, GpuConfig{.num_sms = 4});
  return device;
}

std::unique_ptr<core::MemoryManager> make(const std::string& name,
                                          std::size_t heap = 96u << 20) {
  core::register_all_allocators();
  return core::StackBuilder(dev()).build(name, heap).manager;
}

TEST(AllocPerf, ProducesOneTimingPerIteration) {
  auto mgr = make("ScatterAlloc");
  AllocPerfParams params;
  params.num_allocs = 2'000;
  params.size = 64;
  params.iterations = 4;
  const auto series = run_alloc_perf(dev(), *mgr, params);
  EXPECT_EQ(series.alloc_ms.size(), 4u);
  EXPECT_EQ(series.free_ms.size(), 4u);
  EXPECT_EQ(series.failed_allocs, 0u);
  for (double ms : series.alloc_ms) EXPECT_GT(ms, 0.0);
}

TEST(AllocPerf, WarpBasedLaunchesOneAllocPerWarp) {
  auto mgr = make("Halloc");
  AllocPerfParams params;
  params.num_allocs = 512;
  params.size = 128;
  params.warp_based = true;
  params.iterations = 2;
  const auto series = run_alloc_perf(dev(), *mgr, params);
  EXPECT_EQ(series.failed_allocs, 0u);
}

TEST(AllocPerf, MixedSizesDeterministicAcrossManagers) {
  // The identical request stream must reach every manager (same seed).
  AllocPerfParams params;
  params.num_allocs = 1'000;
  params.size_min = 4;
  params.size_max = 1024;
  params.iterations = 1;
  for (const char* name : {"ScatterAlloc", "Ouro-P-S", "CUDA"}) {
    auto mgr = make(name);
    const auto series = run_alloc_perf(dev(), *mgr, params);
    EXPECT_EQ(series.failed_allocs, 0u) << name;
  }
}

TEST(AllocPerf, ReuseRoundsFasterOrEqualOnAverageForQueues) {
  // Ouroboros: re-use is "drastically faster than allocating from an empty
  // queue initially" (§5) — iteration 0 pays the chunk splits, and the
  // re-use rounds serve every page from the queues. Wall time on a shared
  // host swings more than that difference; the splits' atomic RMWs do not.
  auto mgr = make("Ouro-P-S");
  AllocPerfParams params;
  params.num_allocs = 8'192;
  params.size = 32;
  params.iterations = 1;
  const auto first = run_alloc_perf(dev(), *mgr, params);
  params.iterations = 4;
  const auto reuse = run_alloc_perf(dev(), *mgr, params);
  EXPECT_EQ(first.failed_allocs + reuse.failed_allocs, 0u);
  EXPECT_GT(first.alloc_counters.atomic_rmw, 0u) << "round 0 splits chunks";
  EXPECT_EQ(reuse.alloc_counters.atomic_rmw, 0u)
      << "a re-use round split a chunk";
}

TEST(Fragmentation, AtomicBaselineIsDense) {
  auto mgr = make("Atomic");
  const auto r = run_fragmentation(dev(), *mgr, 4'096, 64, 1);
  EXPECT_EQ(r.failed, 0u);
  // A bump allocator is the theoretical optimum.
  EXPECT_EQ(r.first_round_range, r.theoretical);
}

TEST(Fragmentation, RangeAtLeastTheoretical) {
  for (const char* name : {"ScatterAlloc", "Halloc", "Ouro-P-S", "CUDA"}) {
    auto mgr = make(name);
    const auto r = run_fragmentation(dev(), *mgr, 4'096, 64, 2);
    EXPECT_EQ(r.failed, 0u) << name;
    EXPECT_GE(r.max_range, r.theoretical) << name;
  }
}

TEST(Fragmentation, OuroborosTighterThanCuda) {
  // Fig. 11a: Ouroboros stays close to the baseline; the CUDA allocator
  // reports back (nearly) the maximum possible range.
  auto ouro = make("Ouro-P-S");
  const auto r_ouro = run_fragmentation(dev(), *ouro, 8'192, 64, 2);
  auto cuda = make("CUDA");
  const auto r_cuda = run_fragmentation(dev(), *cuda, 8'192, 64, 2);
  EXPECT_LT(r_ouro.max_range, r_cuda.max_range);
}

TEST(Oom, BumpAllocatorReachesFullUtilisation) {
  Device small(24u << 20, GpuConfig{.num_sms = 2});
  core::register_all_allocators();
  auto mgr = core::StackBuilder(small).build("Atomic", 16u << 20).manager;
  const auto r = run_oom(small, *mgr, 1'000, 64, 16u << 20, 30.0);
  EXPECT_GT(r.percent_of_baseline(), 95.0);
  EXPECT_FALSE(r.timed_out);
}

TEST(Oom, OuroborosHighUtilisation) {
  // The virtualized variants carry almost no static queue cost — the design
  // goal behind Fig. 11b's 98 % utilisation.
  Device small(24u << 20, GpuConfig{.num_sms = 2});
  core::register_all_allocators();
  auto mgr = core::StackBuilder(small).build("Ouro-P-VA", 16u << 20).manager;
  const auto r = run_oom(small, *mgr, 1'000, 64, 16u << 20, 60.0);
  EXPECT_GT(r.percent_of_baseline(), 75.0);
}

TEST(Oom, VirtualizedBeatsStandardOnSmallHeaps) {
  // Ouro-S must pre-reserve ring storage; Ouro-VA grows its queues on the
  // chunks it manages. On a tight heap the virtualized design wins memory.
  Device small(24u << 20, GpuConfig{.num_sms = 2});
  core::register_all_allocators();
  auto standard =
      core::StackBuilder(small).build("Ouro-P-S", 16u << 20).manager;
  const auto r_s = run_oom(small, *standard, 1'000, 64, 16u << 20, 60.0);
  auto virt = core::StackBuilder(small).build("Ouro-P-VA", 16u << 20).manager;
  const auto r_v = run_oom(small, *virt, 1'000, 64, 16u << 20, 60.0);
  EXPECT_GE(r_v.achieved, r_s.achieved);
}

TEST(WorkGen, ManagerAndBaselineAgreeOnChecksum) {
  auto mgr = make("ScatterAlloc");
  const auto with_mgr = run_workgen(dev(), *mgr, 4'096, 4, 64, 42);
  std::vector<std::byte> scratch;
  const auto baseline = run_workgen_baseline(dev(), scratch, 4'096, 4, 64, 42);
  EXPECT_EQ(with_mgr.failed, 0u);
  EXPECT_EQ(with_mgr.checksum, baseline.checksum);
  EXPECT_GT(with_mgr.total_ms, 0.0);
  EXPECT_GT(baseline.total_ms, 0.0);
}

TEST(WorkGen, LargeRangeChecksumAgreement) {
  auto mgr = make("Ouro-P-S");
  const auto with_mgr = run_workgen(dev(), *mgr, 2'048, 4, 4'096, 7);
  std::vector<std::byte> scratch;
  const auto baseline =
      run_workgen_baseline(dev(), scratch, 2'048, 4, 4'096, 7);
  EXPECT_EQ(with_mgr.failed, 0u);
  EXPECT_EQ(with_mgr.checksum, baseline.checksum);
}

TEST(AccessPerf, BaselineIsCoalesced) {
  auto mgr = make("CUDA");
  const auto r = run_access_perf(dev(), *mgr, 4'096, 16, 128, 99);
  EXPECT_GT(r.transactions, 0u);
  EXPECT_GT(r.baseline_transactions, 0u);
  // Per-thread blocks can never beat the dense SoA layout.
  EXPECT_GE(r.transaction_ratio(), 1.0);
}

TEST(AccessPerf, OuroborosCloserToBaselineThanCuda) {
  // Fig. 11e: Ouroboros stays closest to the coalesced baseline; CUDA shows
  // poor access times (its 32 B headers misalign neighbouring payloads).
  auto ouro = make("Ouro-P-S");
  const auto r_ouro = run_access_perf(dev(), *ouro, 4'096, 16, 128, 99);
  auto cuda = make("CUDA");
  const auto r_cuda = run_access_perf(dev(), *cuda, 4'096, 16, 128, 99);
  EXPECT_LE(r_ouro.transaction_ratio(), r_cuda.transaction_ratio());
}

// The per-step definition of the coalescing proxy: gather the lines the
// warp's live lanes touch at step w, sort them and count the distinct ones.
std::uint64_t transactions_by_sorting(const std::vector<std::uint64_t>& bases,
                                      const std::vector<std::uint32_t>& words,
                                      std::uint64_t stride) {
  std::uint64_t total = 0;
  for (std::size_t first = 0; first < bases.size(); first += gpu::kWarpSize) {
    const std::size_t end =
        std::min(bases.size(), first + std::size_t{gpu::kWarpSize});
    const std::uint32_t steps =
        *std::max_element(words.begin() + first, words.begin() + end);
    for (std::uint64_t w = 0; w < steps; ++w) {
      std::vector<std::uint64_t> lines;
      for (std::size_t r = first; r < end; ++r) {
        if (w < words[r]) {
          lines.push_back((bases[r] + w * stride) / gpu::kTransactionBytes);
        }
      }
      std::sort(lines.begin(), lines.end());
      total += std::unique(lines.begin(), lines.end()) - lines.begin();
    }
  }
  return total;
}

TEST(AccessPerf, TransactionCountMatchesPerStepSort) {
  // Hand-built layouts of 100 lanes (three full warps and a partial one):
  // ascending, shuffled, descending, null-holed (a failed allocation is
  // counted at address 0), overlapping bases, and the dense baseline's
  // stride. Block lengths vary, so lanes leave at different steps.
  constexpr std::size_t kLanes = 100;
  std::vector<std::uint32_t> words(kLanes);
  std::vector<std::uint64_t> ascending(kLanes);
  std::uint64_t next = 0x10000;
  for (std::size_t r = 0; r < kLanes; ++r) {
    words[r] = static_cast<std::uint32_t>(1 + (r * 7) % 32);
    ascending[r] = next;
    next += 16 * ((words[r] * 4 + 15) / 16) + (r % 5 == 0 ? 32 : 0);
  }
  std::vector<std::uint64_t> shuffled = ascending;
  core::SplitMix64 rng(5);
  for (std::size_t r = kLanes - 1; r > 0; --r) {
    std::swap(shuffled[r], shuffled[rng.range(0, r)]);
  }
  const std::vector<std::uint64_t> descending(ascending.rbegin(),
                                              ascending.rend());
  std::vector<std::uint64_t> holed = shuffled;
  for (std::size_t r = 3; r < kLanes; r += 9) holed[r] = 0;
  std::vector<std::uint64_t> overlapping(kLanes);
  for (std::size_t r = 0; r < kLanes; ++r) {
    overlapping[r] = 0x20000 + 40 * ((r * 13) % 17);
  }
  std::vector<std::uint32_t> some_empty = words;
  for (std::size_t r = 0; r < kLanes; r += 11) some_empty[r] = 0;

  const std::pair<const char*, const std::vector<std::uint64_t>*> layouts[] =
      {{"ascending", &ascending},
       {"shuffled", &shuffled},
       {"descending", &descending},
       {"holed", &holed},
       {"overlapping", &overlapping}};
  for (const auto& [name, bases] : layouts) {
    for (const auto* w : {&words, &some_empty}) {
      for (const std::uint64_t stride : {std::uint64_t{4}, 4 * kLanes}) {
        const std::uint64_t want = transactions_by_sorting(*bases, *w, stride);
        EXPECT_GT(want, 0u);
        EXPECT_EQ(count_transactions(*bases, *w, stride), want)
            << name << " stride " << stride;
      }
    }
  }
}

}  // namespace
}  // namespace gms::work
