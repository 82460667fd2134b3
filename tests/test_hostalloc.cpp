// Host-based allocator family tests (DESIGN.md §14): the ExtentMap planning
// structure's best-fit/coalescing/accounting invariants, the HostExtent
// device-visible handoff table, HostBuddy's split/merge invariants, and —
// the family's defining behaviour — the
// StreamPool's stream-ordered deferred reclamation: a free on stream A is
// immediately reusable by A, invisible to stream B until the next sync
// point, and honestly reported as exhaustion-before-sync when it starves a
// sibling. All three managers promise *strict* byte accounting even across
// injected faults (host planning loses nothing; see HostManagerBase).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/fault_inject.h"
#include "core/registry.h"
#include "core/stack_builder.h"
#include "core/utils.h"
#include "gpu/device.h"
#include "trace/trace_recorder.h"
#include "hostalloc/extent_best_fit.h"
#include "hostalloc/extent_map.h"
#include "hostalloc/host_buddy.h"
#include "hostalloc/stream_pool.h"

namespace gms {
namespace {

using gpu::Device;
using gpu::GpuConfig;
using gpu::ThreadCtx;

// ---- ExtentMap: the host-side planning core ---------------------------------

TEST(ExtentMap, BestFitPrefersSmallestSufficientExtent) {
  hostalloc::ExtentMap map;
  map.reset(0, 4096);

  // Carve three extents, free the first and third: the map now holds a
  // 512-byte hole at 0 and the tail. A 256-byte request must best-fit into
  // the 512 hole, not first-fit into the larger tail.
  std::uint64_t a = 0, b = 0, c = 0;
  ASSERT_TRUE(map.carve(512, a));
  ASSERT_TRUE(map.carve(1024, b));
  ASSERT_TRUE(map.carve(256, c));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 512u);
  EXPECT_EQ(c, 1536u);
  EXPECT_EQ(map.insert(a, 512), 0u);  // no free neighbours yet

  std::uint64_t best = 0;
  ASSERT_TRUE(map.carve(256, best));
  EXPECT_EQ(best, 0u);  // the 512 hole, not the tail at 1792
  EXPECT_EQ(map.free_bytes(), 4096u - 1024 - 256 - 256);
}

TEST(ExtentMap, InsertCoalescesBothNeighbours) {
  hostalloc::ExtentMap map;
  map.reset(0, 4096);
  std::uint64_t a = 0, b = 0, c = 0;
  ASSERT_TRUE(map.carve(1024, a));
  ASSERT_TRUE(map.carve(1024, b));
  ASSERT_TRUE(map.carve(1024, c));
  EXPECT_EQ(map.extent_count(), 1u);  // the 1024 tail

  EXPECT_EQ(map.insert(a, 1024), 0u);
  EXPECT_EQ(map.insert(c, 1024), 1u);  // merges with the tail
  // b bridges a and c+tail: both neighbours merge into one spanning extent.
  EXPECT_EQ(map.insert(b, 1024), 2u);
  EXPECT_EQ(map.extent_count(), 1u);
  EXPECT_EQ(map.free_bytes(), 4096u);
  EXPECT_EQ(map.largest_free(), 4096u);

  std::uint64_t walked = 0;
  std::string why;
  EXPECT_TRUE(map.check(0, 4096, walked, why)) << why;
}

TEST(ExtentMap, ChurnPreservesAccountingInvariant) {
  hostalloc::ExtentMap map;
  constexpr std::uint64_t kPool = 1u << 20;
  map.reset(0, kPool);

  core::SplitMix64 rng(0xE07E57u);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> live;  // offset, bytes
  std::uint64_t live_bytes = 0;
  for (int i = 0; i < 4000; ++i) {
    if (live.empty() || (rng.next() & 3) != 0) {
      const std::uint64_t bytes = 16 * (1 + rng.next() % 512);
      std::uint64_t off = 0;
      if (map.carve(bytes, off)) {
        live.emplace_back(off, bytes);
        live_bytes += bytes;
      }
    } else {
      const std::size_t victim = rng.next() % live.size();
      map.insert(live[victim].first, live[victim].second);
      live_bytes -= live[victim].second;
      live[victim] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(map.free_bytes() + live_bytes, kPool) << "iteration " << i;
  }
  std::uint64_t walked = 0;
  std::string why;
  EXPECT_TRUE(map.check(0, kPool, walked, why)) << why;
  EXPECT_GT(walked, 0u);
}

// ---- HostExtent: best-fit planning + device-visible handoff table -----------

TEST(HostExtent, HandoffTablePublishesAndClearsSlots) {
  Device dev(8u << 20, GpuConfig{.num_sms = 2});
  // Pin a fine 16-byte granule: this test checks the exact rounded length
  // the handoff table publishes (the default is the coarser cudaMalloc-style
  // 256-byte carve).
  hostalloc::ExtentBestFit mgr(dev, 4u << 20,
                               hostalloc::ExtentBestFit::Config{.granule = 16});

  void* ptr = nullptr;
  dev.launch_n(1, [&](ThreadCtx& t) { ptr = mgr.malloc(t, 100); });
  ASSERT_NE(ptr, nullptr);
  const std::uint32_t slot = mgr.slot_of(ptr);
  ASSERT_NE(slot, hostalloc::ExtentBestFit::kNoSlot);

  // Device-side resolution: the published record carries the rounded length
  // and a stable offset; a vacant/out-of-range slot reads back empty.
  std::uint64_t bytes = 0, off = 0, off_again = 0, oob = 0;
  dev.launch_n(1, [&](ThreadCtx& t) {
    off = mgr.resolve(t, slot, bytes);
    std::uint64_t ignored = 0;
    off_again = mgr.resolve(t, slot, ignored);
    oob = mgr.resolve(t, 1u << 30, ignored);
  });
  EXPECT_NE(off, hostalloc::ExtentBestFit::kEmptySlot);
  EXPECT_EQ(off, off_again);
  EXPECT_EQ(bytes, 112u);  // 100 rounded to the 16-byte granule
  EXPECT_EQ(oob, hostalloc::ExtentBestFit::kEmptySlot);

  dev.launch_n(1, [&](ThreadCtx& t) { mgr.free(t, ptr); });
  dev.launch_n(1, [&](ThreadCtx& t) {
    std::uint64_t ignored = 0;
    off = mgr.resolve(t, slot, ignored);
  });
  EXPECT_EQ(off, hostalloc::ExtentBestFit::kEmptySlot);
  EXPECT_TRUE(mgr.audit().ok);
}

TEST(HostExtent, ChurnKeepsStrictAccountingAndAuditPasses) {
  Device dev(16u << 20, GpuConfig{.num_sms = 2});
  hostalloc::ExtentBestFit mgr(dev, 8u << 20);
  const std::uint64_t pool = mgr.free_bytes();

  std::vector<void*> ptrs(256, nullptr);
  dev.launch_n(256, [&](ThreadCtx& t) {
    const std::size_t size = 32 + (t.thread_rank() % 13) * 48;
    for (int round = 0; round < 8; ++round) {
      void* p = mgr.malloc(t, size);
      if (p != nullptr) {
        std::memset(p, 0xAB, size);
        mgr.free(t, p);
      }
    }
    ptrs[t.thread_rank()] = mgr.malloc(t, size);  // stays live
  });

  const auto audit = mgr.audit();
  EXPECT_TRUE(audit.ok) << audit.detail;
  EXPECT_GT(audit.structures_walked, 0u);
  EXPECT_EQ(mgr.live_count(), 256u);
  EXPECT_GT(mgr.carve_count(), 256u);
  EXPECT_LT(mgr.free_bytes(), pool);

  dev.launch_n(256, [&](ThreadCtx& t) { mgr.free(t, ptrs[t.thread_rank()]); });
  // Strict accounting: every byte returns (host planning loses nothing).
  EXPECT_EQ(mgr.free_bytes(), pool);
  EXPECT_EQ(mgr.live_count(), 0u);
  EXPECT_EQ(mgr.largest_free(), pool);  // fully coalesced again
  EXPECT_TRUE(mgr.audit().ok);
}

// ---- HostBuddy: split/merge invariants --------------------------------------

TEST(HostBuddy, SplitsToRequestOrderAndMergesBackToOneBlock) {
  Device dev(8u << 20, GpuConfig{.num_sms = 2});
  hostalloc::HostBuddy mgr(dev, 4u << 20);
  const std::uint64_t pool = mgr.pool_bytes();
  const unsigned top = mgr.order_count() - 1;
  ASSERT_EQ(mgr.free_blocks_at(top), 1u);  // pristine: one spanning block

  void* ptr = nullptr;
  dev.launch_n(1, [&](ThreadCtx& t) { ptr = mgr.malloc(t, 1); });
  ASSERT_NE(ptr, nullptr);
  // A minimum-size block at the bottom of the tree: one split per order,
  // leaving exactly one free buddy at every order below the top.
  EXPECT_EQ(mgr.split_count(), top);
  for (unsigned o = 0; o < top; ++o) {
    EXPECT_EQ(mgr.free_blocks_at(o), 1u) << "order " << o;
  }
  EXPECT_EQ(mgr.free_blocks_at(top), 0u);
  EXPECT_TRUE(mgr.audit().ok);

  dev.launch_n(1, [&](ThreadCtx& t) { mgr.free(t, ptr); });
  // The cascade merges all the way back: one block, all bytes, no missed
  // merges for the audit to flag.
  EXPECT_EQ(mgr.merge_count(), top);
  EXPECT_EQ(mgr.free_blocks_at(top), 1u);
  EXPECT_EQ(mgr.free_bytes(), pool);
  EXPECT_EQ(mgr.live_count(), 0u);
  const auto audit = mgr.audit();
  EXPECT_TRUE(audit.ok) << audit.detail;
}

TEST(HostBuddy, MixedChurnTilesThePoolExactly) {
  Device dev(8u << 20, GpuConfig{.num_sms = 2});
  hostalloc::HostBuddy mgr(dev, 4u << 20);
  const std::uint64_t pool = mgr.pool_bytes();

  std::vector<void*> ptrs(128, nullptr);
  dev.launch_n(128, [&](ThreadCtx& t) {
    const std::size_t size = 64 << (t.thread_rank() % 5);  // 64 B .. 1 KiB
    for (int round = 0; round < 4; ++round) {
      void* p = mgr.malloc(t, size);
      if (p != nullptr) mgr.free(t, p);
    }
    ptrs[t.thread_rank()] = mgr.malloc(t, size);
  });
  // The audit walks every free block and every live block and requires them
  // to tile the power-of-two pool byte-exactly — a lost block, an overlap,
  // or an unmerged buddy pair all fail it.
  const auto audit = mgr.audit();
  EXPECT_TRUE(audit.ok) << audit.detail;
  EXPECT_GT(audit.structures_walked, 0u);

  dev.launch_n(128, [&](ThreadCtx& t) { mgr.free(t, ptrs[t.thread_rank()]); });
  EXPECT_EQ(mgr.free_bytes(), pool);
  EXPECT_TRUE(mgr.audit().ok);
}

// ---- StreamPool: stream-ordered deferred reclamation ------------------------

TEST(StreamPool, OwnStreamReusesDeferredFreesImmediately) {
  Device dev(4u << 20, GpuConfig{.num_sms = 1});
  hostalloc::StreamPool mgr(dev, 1u << 20);

  void* first = nullptr;
  void* second = nullptr;
  dev.launch_n(1, [&](ThreadCtx& t) {
    first = mgr.malloc(t, 1000);
    mgr.free(t, first);  // deferred onto this lane's stream
    second = mgr.malloc(t, 1000);  // stream-ordered: reusable at once
  });
  ASSERT_NE(first, nullptr);
  // cudaFreeAsync ordering: the same stream sees its own free immediately —
  // the pool hands the identical bytes straight back without touching the
  // global extent map.
  EXPECT_EQ(second, first);
  EXPECT_EQ(mgr.stream_reuse_count(), 1u);
  EXPECT_TRUE(mgr.audit().ok);
}

TEST(StreamPool, CrossStreamFreesInvisibleUntilSyncPoint) {
  Device dev(4u << 20, GpuConfig{.num_sms = 2});
  hostalloc::StreamPool mgr(dev, 256u << 10,
                            hostalloc::StreamPool::Config{.streams = 2});
  constexpr std::size_t kChunk = 256;

  // One launch, two single-lane blocks. Block 0 waits (bounded) for block 1
  // to announce itself from the *other* SM, then drains the whole pool and
  // frees everything (all bytes end up deferred on its stream); block 1
  // then allocates. Blocks are pulled in order, so block 1 never runs
  // before block 0 *starts*; if both land on one SM (a single-core host can
  // serialize the workers), block 0's announce wait times out, block 0
  // completes first, and the attempt retries — no deadlock either way. The
  // consumer frees any pointer it got, so retries never leak pool bytes.
  std::vector<void*> held((256u << 10) / kChunk, nullptr);
  std::atomic<int> consumer_started{false};
  std::atomic<int> producer_done{false};
  std::atomic<unsigned> smid_a{0}, smid_b{0};
  std::atomic<std::uint64_t> freed_bytes{0};
  void* starved_ptr = &held;  // sentinel: overwritten by block 1
  std::uint64_t starved_before = 0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    mgr.synchronize_all();  // reset: everything back in the global map
    consumer_started.store(false);
    producer_done.store(false);
    starved_before = mgr.starved_by_deferral();
    dev.launch(2, 1, [&](ThreadCtx& t) {
      if (t.block_idx() == 0) {
        smid_a.store(t.smid());
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
        while (!consumer_started.load() &&
               std::chrono::steady_clock::now() < deadline) {
          t.backoff();  // yields, so the other SM's worker can claim block 1
        }
        std::size_t n = 0;
        while (n < held.size() &&
               (held[n] = mgr.malloc(t, kChunk)) != nullptr) {
          ++n;
        }
        std::uint64_t freed = 0;
        for (std::size_t i = 0; i < n; ++i) {
          mgr.free(t, held[i]);
          freed += kChunk;
        }
        freed_bytes.store(freed);
        producer_done.store(true);
      } else {
        smid_b.store(t.smid());
        consumer_started.store(true);
        while (!producer_done.load()) t.backoff();
        void* p = mgr.malloc(t, kChunk);
        starved_ptr = p;
        // Same-stream retries reuse from the deferred list and would leak
        // the block; hand it straight back (a no-op when p is nullptr).
        if (p != nullptr) mgr.free(t, p);
      }
    });
    if (smid_a.load() % 2 != smid_b.load() % 2) break;  // distinct streams
    starved_ptr = &held;
  }
  if (smid_a.load() % 2 == smid_b.load() % 2) {
    GTEST_SKIP() << "scheduler never split the two blocks across SMs";
  }

  // The pool was fully drained, every byte sits deferred on stream A, and
  // stream B's request failed even though the memory "exists" — counted as
  // starved-by-deferral, the family's exhaustion-before-sync signature.
  EXPECT_EQ(starved_ptr, nullptr);
  EXPECT_EQ(mgr.starved_by_deferral(), starved_before + 1);
  const unsigned stream_a = smid_a.load() % 2;
  EXPECT_EQ(mgr.deferred_bytes(stream_a), freed_bytes.load());
  EXPECT_GT(freed_bytes.load(), 0u);
  EXPECT_EQ(mgr.free_bytes(), mgr.pool_bytes() - freed_bytes.load());
  EXPECT_TRUE(mgr.audit().ok);  // deferred bytes still account strictly

  // The next launch is a sync point: the first operation of the new launch
  // generation drains every stream and the same request now succeeds.
  void* after_sync = nullptr;
  dev.launch_n(1, [&](ThreadCtx& t) {
    after_sync = mgr.malloc(t, kChunk);
    if (after_sync != nullptr) mgr.free(t, after_sync);
  });
  EXPECT_NE(after_sync, nullptr);
  EXPECT_GT(mgr.sync_count(), 0u);
  mgr.synchronize_all();
  EXPECT_EQ(mgr.free_bytes(), mgr.pool_bytes());
}

TEST(StreamPool, TrimPublishesOwnStreamImmediately) {
  Device dev(4u << 20, GpuConfig{.num_sms = 1});
  hostalloc::StreamPool mgr(dev, 1u << 20,
                            hostalloc::StreamPool::Config{.streams = 1});
  const std::uint64_t pool = mgr.pool_bytes();

  dev.launch_n(1, [&](ThreadCtx& t) {
    void* a = mgr.malloc(t, 4096);
    void* b = mgr.malloc(t, 4096);
    mgr.free(t, a);
    mgr.free(t, b);
    // Deferred, not free: the global map is still missing those bytes.
    mgr.trim(t);  // cudaMemPoolTrimTo(0): publish this stream's cache now
  });
  EXPECT_EQ(mgr.deferred_bytes(0), 0u);
  EXPECT_EQ(mgr.free_bytes(), pool);
  EXPECT_EQ(mgr.live_count(), 0u);
  EXPECT_TRUE(mgr.audit().ok);
}

TEST(StreamPool, ExhaustionBeforeSyncUnderFaultInjection) {
  core::register_all_allocators();
  Device dev(8u << 20, GpuConfig{.num_sms = 2});
  // Every 3rd malloc fails by injection on top of genuine pool exhaustion;
  // the pool must stay byte-exact through both failure sources.
  auto stack = core::StackBuilder(dev).build("fault{mode=nth,n=3}>StreamPool",
                                            512u << 10);
  ASSERT_NE(stack.injector, nullptr);
  auto* pool = dynamic_cast<hostalloc::StreamPool*>(stack.base);
  ASSERT_NE(pool, nullptr);

  std::atomic<std::uint64_t> nullptr_mallocs{0};
  std::vector<void*> ptrs(64, nullptr);
  for (int round = 0; round < 3; ++round) {
    dev.launch_n(64, [&](ThreadCtx& t) {
      // Oversized per-lane demand: 64 lanes x 16 KiB > 512 KiB pool, so the
      // pool genuinely exhausts while sibling streams sit on deferred bytes.
      void* p = stack.manager->malloc(t, 16u << 10);
      if (p == nullptr) {
        nullptr_mallocs.fetch_add(1);
      } else if (ptrs[t.thread_rank()] == nullptr) {
        ptrs[t.thread_rank()] = p;
      } else {
        stack.manager->free(t, p);  // already holding one: no leaks
      }
      if (ptrs[t.thread_rank()] != nullptr && (t.thread_rank() & 1) != 0) {
        stack.manager->free(t, ptrs[t.thread_rank()]);
        ptrs[t.thread_rank()] = nullptr;
      }
    });
  }
  EXPECT_GT(stack.injector->injected_failures(), 0u);
  EXPECT_GT(nullptr_mallocs.load(), 0u);

  // Strict accounting survives injected faults and true exhaustion alike:
  // free + live + deferred tile the pool exactly, and releasing everything
  // restores every byte.
  const auto audit = pool->audit();
  EXPECT_TRUE(audit.ok) << audit.detail;
  dev.launch_n(64, [&](ThreadCtx& t) {
    if (ptrs[t.thread_rank()] != nullptr) {
      stack.manager->free(t, ptrs[t.thread_rank()]);
    }
  });
  pool->synchronize_all();
  EXPECT_EQ(pool->free_bytes(), pool->pool_bytes());
  EXPECT_TRUE(pool->audit().ok);
}

}  // namespace
}  // namespace gms
