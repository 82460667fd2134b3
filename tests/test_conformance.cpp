// Black-box conformance suite run against every registered allocator — the
// survey's promise is a uniform malloc/free contract behind one interface
// (§3), so the same expectations run 16 times.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/registry.h"
#include "core/stack_builder.h"
#include "core/utils.h"
#include "gpu/device.h"

namespace gms {
namespace {

using core::MemoryManager;
using core::Registry;
using gpu::Device;
using gpu::GpuConfig;
using gpu::ThreadCtx;

constexpr std::size_t kArenaBytes = 192u << 20;
constexpr std::size_t kHeapBytes = 160u << 20;

Device& dev() {
  static Device device(kArenaBytes, GpuConfig{.num_sms = 4});
  return device;
}

class ConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    core::register_all_allocators();
    mgr_ = core::StackBuilder(dev()).build(GetParam(), kHeapBytes).manager;
    ASSERT_NE(mgr_, nullptr);
  }

  [[nodiscard]] bool can_free() const {
    return mgr_->traits().supports_free && mgr_->traits().individual_free;
  }
  [[nodiscard]] bool warp_only() const {
    return mgr_->traits().warp_level_only;
  }

  /// Allocates one block per thread (thread- or warp-cooperative depending on
  /// traits) and returns the device offsets, asserting success.
  std::vector<std::size_t> alloc_n(std::size_t n, std::size_t size,
                                   std::vector<void*>* ptrs_out = nullptr) {
    std::vector<void*> ptrs(n, nullptr);
    dev().launch_n(n, [&](ThreadCtx& t) {
      ptrs[t.thread_rank()] = warp_only() ? mgr_->warp_malloc(t, size)
                                          : mgr_->malloc(t, size);
    });
    std::vector<std::size_t> offsets;
    offsets.reserve(n);
    for (void* p : ptrs) {
      EXPECT_NE(p, nullptr);
      if (p != nullptr) {
        EXPECT_TRUE(dev().arena().contains(p));
        offsets.push_back(dev().arena().offset_of(p));
      }
    }
    if (ptrs_out != nullptr) *ptrs_out = std::move(ptrs);
    return offsets;
  }

  static void expect_disjoint(std::vector<std::size_t> offsets,
                              std::size_t size) {
    std::sort(offsets.begin(), offsets.end());
    for (std::size_t i = 1; i < offsets.size(); ++i) {
      EXPECT_GE(offsets[i] - offsets[i - 1], size)
          << "allocations " << i - 1 << " and " << i << " overlap";
    }
  }

  std::unique_ptr<MemoryManager> mgr_;
};

TEST_P(ConformanceTest, SingleAllocationSucceeds) {
  const auto offs = alloc_n(1, 64);
  EXPECT_EQ(offs.size(), 1u);
}

TEST_P(ConformanceTest, ManyThreadsDistinctBlocks) {
  constexpr std::size_t kN = 4096, kSize = 32;
  expect_disjoint(alloc_n(kN, kSize), kSize);
}

TEST_P(ConformanceTest, DistinctBlocksForLargerSize) {
  constexpr std::size_t kN = 1024, kSize = 1024;
  expect_disjoint(alloc_n(kN, kSize), kSize);
}

TEST_P(ConformanceTest, FullSizeLadderWithinBounds) {
  // The paper's 4 B - 8192 B test range (§4.2), 64 threads per size.
  for (std::size_t size = 4; size <= 8192; size *= 2) {
    const auto offs = alloc_n(64, size);
    expect_disjoint(offs, size);
  }
}

TEST_P(ConformanceTest, WriteReadIntegrityUnderConcurrency) {
  constexpr std::size_t kN = 2048, kWords = 8;  // 32 B payload
  std::uint32_t corrupt = 0;
  dev().launch_n(kN, [&](ThreadCtx& t) {
    auto* p = static_cast<std::uint32_t*>(
        warp_only() ? mgr_->warp_malloc(t, kWords * 4)
                    : mgr_->malloc(t, kWords * 4));
    if (p == nullptr) {
      t.atomic_add(&corrupt, 1u);
      return;
    }
    for (unsigned w = 0; w < kWords; ++w) {
      p[w] = t.thread_rank() * 31 + w;
    }
    t.sync_warp();
    for (unsigned w = 0; w < kWords; ++w) {
      if (p[w] != t.thread_rank() * 31 + w) t.atomic_add(&corrupt, 1u);
    }
  });
  EXPECT_EQ(corrupt, 0u);
}

TEST_P(ConformanceTest, MixedSizesStayDisjoint) {
  constexpr std::size_t kN = 2048;
  std::vector<std::size_t> sizes(kN);
  std::vector<void*> ptrs(kN, nullptr);
  dev().launch_n(kN, [&](ThreadCtx& t) {
    core::SplitMix64 rng(t.thread_rank() + 1);
    const std::size_t size = rng.range(4, 1024);
    sizes[t.thread_rank()] = size;
    ptrs[t.thread_rank()] =
        warp_only() ? mgr_->warp_malloc(t, size) : mgr_->malloc(t, size);
  });
  struct Block {
    std::size_t off, size;
  };
  std::vector<Block> blocks;
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_NE(ptrs[i], nullptr) << "thread " << i;
    blocks.push_back({dev().arena().offset_of(ptrs[i]), sizes[i]});
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& a, const Block& b) { return a.off < b.off; });
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_GE(blocks[i].off, blocks[i - 1].off + blocks[i - 1].size);
  }
}

TEST_P(ConformanceTest, FreeThenReuseDoesNotExhaust) {
  if (!can_free()) GTEST_SKIP() << "no individual free";
  constexpr std::size_t kN = 2048, kSize = 256;
  // Many more rounds than the heap could hold without reuse.
  for (int round = 0; round < 8; ++round) {
    std::vector<void*> ptrs;
    const auto offs = alloc_n(kN, kSize, &ptrs);
    ASSERT_EQ(offs.size(), kN);
    dev().launch_n(kN, [&](ThreadCtx& t) {
      mgr_->free(t, ptrs[t.thread_rank()]);
    });
  }
}

TEST_P(ConformanceTest, ConcurrentAllocFreeChurn) {
  if (!can_free()) GTEST_SKIP() << "no individual free";
  constexpr std::size_t kN = 1024;
  std::uint32_t failures = 0;
  dev().launch_n(kN, [&](ThreadCtx& t) {
    core::SplitMix64 rng(t.thread_rank() * 977 + 13);
    for (int it = 0; it < 8; ++it) {
      const std::size_t size = rng.range(8, 512);
      void* p = mgr_->malloc(t, size);
      if (p == nullptr) {
        t.atomic_add(&failures, 1u);
        continue;
      }
      auto* bytes = static_cast<std::uint8_t*>(p);
      bytes[0] = static_cast<std::uint8_t>(t.thread_rank());
      bytes[size - 1] = static_cast<std::uint8_t>(it);
      if (bytes[0] != static_cast<std::uint8_t>(t.thread_rank()) ||
          bytes[size - 1] != static_cast<std::uint8_t>(it)) {
        t.atomic_add(&failures, 1u);
      }
      mgr_->free(t, p);
    }
  });
  EXPECT_EQ(failures, 0u);
}

TEST_P(ConformanceTest, FreeNullIsNoop) {
  dev().launch(1, 32, [&](ThreadCtx& t) { mgr_->free(t, nullptr); });
}

TEST_P(ConformanceTest, WarpBasedAllocation) {
  // One thread per warp allocates (the paper's warp-based mode, Fig. 9g).
  constexpr std::size_t kThreads = 2048, kSize = 128;
  std::vector<void*> ptrs(kThreads / 32, nullptr);
  dev().launch_n(kThreads, [&](ThreadCtx& t) {
    if (t.lane_id() == 0) {
      ptrs[t.global_warp_id()] =
          warp_only() ? mgr_->warp_malloc(t, kSize) : mgr_->malloc(t, kSize);
    }
  });
  std::vector<std::size_t> offs;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    offs.push_back(dev().arena().offset_of(p));
  }
  expect_disjoint(offs, kSize);
}

TEST_P(ConformanceTest, WholeWarpCooperativeAllocation) {
  // All 32 lanes request together through warp_malloc (default forwards to
  // the per-thread path; FDGMalloc exercises its leader-voting design).
  constexpr std::size_t kThreads = 1024, kSize = 48;
  const std::size_t rounded = core::round_up(kSize, 16);
  std::vector<void*> ptrs(kThreads, nullptr);
  dev().launch_n(kThreads, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr_->warp_malloc(t, kSize);
  });
  std::vector<std::size_t> offs;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    offs.push_back(dev().arena().offset_of(p));
  }
  expect_disjoint(offs, rounded > kSize ? kSize : rounded);
}

TEST_P(ConformanceTest, OutOfMemoryReturnsNullNotCrash) {
  // The "nullptr on OOM, never crash" contract holds for EVERY registry
  // entry. Reg-Eff's circular scans probe one instrumented device word per
  // step, so near exhaustion they are slow on the host as well (the paper
  // reins them in with its 1 h timeout); the RegEff-C variants get a
  // smaller heap and fewer threads so driving them into exhaustion stays
  // cheap.
  const bool slow_near_oom = GetParam().rfind("RegEff-C", 0) == 0;
  const std::size_t heap = slow_near_oom ? (6u << 20) : (20u << 20);
  const std::size_t threads = slow_near_oom ? 1024 : 4096;
  // A dedicated small manager so exhaustion is cheap to reach.
  Device small((heap + (4u << 20)), GpuConfig{.num_sms = 2});
  auto mgr = core::StackBuilder(small).build(GetParam(), heap).manager;
  std::uint64_t ok = 0, fail = 0;
  small.launch_n(threads, [&](ThreadCtx& t) {
    for (int i = 0; i < 4; ++i) {
      void* p = mgr->traits().warp_level_only ? mgr->warp_malloc(t, 4096)
                                              : mgr->malloc(t, 4096);
      if (p != nullptr) {
        t.atomic_add(&ok, std::uint64_t{1});
      } else {
        t.atomic_add(&fail, std::uint64_t{1});
      }
    }
  });
  // Demand is several times the heap: failures must occur, successes must
  // have occurred, and nothing crashed.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(fail, 0u);
}

TEST_P(ConformanceTest, LargeRequestRelayPathWorksAndFrees) {
  const auto& tr = mgr_->traits();
  if (!tr.relays_large_to_system) {
    GTEST_SKIP() << "no large-request relay";
  }
  // Just past the direct-service ceiling: every request must take the relay.
  const std::size_t size = tr.max_direct_size + 64;
  constexpr std::size_t kN = 32;
  std::vector<void*> ptrs(kN, nullptr);
  std::uint32_t corrupt = 0;
  dev().launch_n(kN, [&](ThreadCtx& t) {
    void* p = warp_only() ? mgr_->warp_malloc(t, size) : mgr_->malloc(t, size);
    ptrs[t.thread_rank()] = p;
    if (p == nullptr) return;
    auto* bytes = static_cast<std::uint8_t*>(p);
    bytes[0] = static_cast<std::uint8_t>(t.thread_rank() + 1);
    bytes[size - 1] = static_cast<std::uint8_t>(t.thread_rank() + 7);
    if (bytes[0] != static_cast<std::uint8_t>(t.thread_rank() + 1) ||
        bytes[size - 1] != static_cast<std::uint8_t>(t.thread_rank() + 7)) {
      t.atomic_add(&corrupt, 1u);
    }
  });
  EXPECT_EQ(corrupt, 0u);
  std::vector<std::size_t> offs;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    offs.push_back(dev().arena().offset_of(p));
  }
  expect_disjoint(offs, size);
  if (can_free()) {
    // Relayed blocks must round-trip through free like direct ones.
    dev().launch_n(kN, [&](ThreadCtx& t) {
      mgr_->free(t, ptrs[t.thread_rank()]);
    });
  }
}

TEST_P(ConformanceTest, ImpossiblyLargeRequestReturnsNullNotCrash) {
  // Requests beyond the whole heap — and beyond any relay backing — must
  // come back as nullptr from every entry, relayed or not.
  std::vector<void*> ptrs(32, reinterpret_cast<void*>(1));
  dev().launch(1, 32, [&](ThreadCtx& t) {
    const std::size_t huge =
        t.lane_id() % 2 == 0 ? kHeapBytes * 2
                             : std::numeric_limits<std::size_t>::max() / 2;
    ptrs[t.lane_id()] =
        warp_only() ? mgr_->warp_malloc(t, huge) : mgr_->malloc(t, huge);
  });
  for (void* p : ptrs) EXPECT_EQ(p, nullptr);
}

TEST_P(ConformanceTest, ZeroSizeIsServed) {
  std::vector<void*> ptrs(32, nullptr);
  dev().launch(1, 32, [&](ThreadCtx& t) {
    ptrs[t.lane_id()] =
        warp_only() ? mgr_->warp_malloc(t, 0) : mgr_->malloc(t, 0);
  });
  for (void* p : ptrs) EXPECT_NE(p, nullptr);
}

TEST_P(ConformanceTest, OddSizesDoNotOverlap) {
  for (std::size_t size : {1, 3, 7, 17, 100, 333, 1000, 5000}) {
    const auto offs = alloc_n(128, size);
    expect_disjoint(offs, size);
  }
}

TEST_P(ConformanceTest, InitTimeRecorded) {
  EXPECT_GE(mgr_->init_ms(), 0.0);
  EXPECT_LT(mgr_->init_ms(), 10'000.0);
}

TEST_P(ConformanceTest, TraitsAreInternallyConsistent) {
  const auto& tr = mgr_->traits();
  EXPECT_FALSE(tr.name.empty());
  EXPECT_FALSE(tr.family.empty());
  if (tr.warp_level_only) {
    EXPECT_FALSE(tr.general_purpose);
  }
  if (!tr.supports_free) {
    EXPECT_FALSE(tr.general_purpose);
  }
  if (tr.relays_large_to_system) {
    EXPECT_LT(tr.max_direct_size,
              std::numeric_limits<std::size_t>::max());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAllocators, ConformanceTest,
    ::testing::ValuesIn([] {
      core::register_all_allocators();
      // Every base, then each one's "+V", "+R" and (general purpose only)
      // "+W" stack: every stage must itself honour the full malloc/free
      // contract, the validating shim first among them.
      const auto& reg = Registry::instance();
      std::vector<std::string> names = reg.names();
      for (const auto& base : reg.names()) {
        names.push_back(base + "+V");
        names.push_back(base + "+R");
        if (reg.find(base)->traits.general_purpose) {
          names.push_back(base + "+W");
        }
      }
      return names;
    }()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      std::replace(name.begin(), name.end(), '+', '_');
      return name;
    });

}  // namespace
}  // namespace gms
