// White-box tests of allocator-specific mechanisms: each checks a design
// element the survey calls out for that approach.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "alloc_core/sub_arena.h"
#include "allocators/atomic_alloc.h"
#include "allocators/cuda_standin.h"
#include "allocators/fdg_malloc.h"
#include "allocators/halloc.h"
#include "allocators/ouroboros.h"
#include "allocators/reg_eff.h"
#include "allocators/scatter_alloc.h"
#include "allocators/xmalloc.h"

namespace gms::alloc {
namespace {

using gpu::Device;
using gpu::GpuConfig;
using gpu::ThreadCtx;

Device& dev() {
  static Device device(128u << 20, GpuConfig{.num_sms = 4});
  return device;
}
constexpr std::size_t kHeap = 96u << 20;

template <typename Manager, typename... Args>
std::unique_ptr<Manager> fresh(Args&&... args) {
  dev().arena().clear();
  return std::make_unique<Manager>(dev(), kHeap, std::forward<Args>(args)...);
}

// ---- Atomic baseline ---------------------------------------------------------

TEST(AtomicAlloc, BumpsMonotonically) {
  auto mgr = fresh<AtomicAlloc>();
  void* a = nullptr;
  void* b = nullptr;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    a = mgr->malloc(t, 40);
    b = mgr->malloc(t, 8);
  });
  EXPECT_EQ(static_cast<std::byte*>(b) - static_cast<std::byte*>(a), 48)
      << "40 rounds to 48 (16 B granularity), then the next block follows";
}

TEST(AtomicAlloc, RollsBackOnExhaustion) {
  Device small(1u << 20, GpuConfig{.num_sms = 1});
  AtomicAlloc mgr(small, 64 * 1024);
  std::uint32_t large_fails = 0;
  void* after = nullptr;
  small.launch(1, 1, [&](ThreadCtx& t) {
    if (mgr.malloc(t, 1u << 20) == nullptr) ++large_fails;
    after = mgr.malloc(t, 64);  // must still succeed post-rollback
  });
  EXPECT_EQ(large_fails, 1u);
  EXPECT_NE(after, nullptr);
}

// ---- CUDA stand-in ------------------------------------------------------------

TEST(CudaStandin, UnitStaircaseInAddresses) {
  auto mgr = fresh<CudaStandin>();
  // Sizes within one 128 B unit consume identical footprints.
  std::size_t off40 = 0, off80 = 0, off200 = 0;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    auto* a = mgr->malloc(t, 40);   // header + 40 <= 128 -> 1 unit
    auto* b = mgr->malloc(t, 80);   // header + 80 <= 128 -> 1 unit
    auto* c = mgr->malloc(t, 200);  // 2 units
    auto* d = mgr->malloc(t, 8);
    off40 = static_cast<std::byte*>(b) - static_cast<std::byte*>(a);
    off80 = static_cast<std::byte*>(c) - static_cast<std::byte*>(b);
    off200 = static_cast<std::byte*>(d) - static_cast<std::byte*>(c);
  });
  EXPECT_EQ(off40, 128u);
  EXPECT_EQ(off80, 128u);
  EXPECT_EQ(off200, 256u);
}

TEST(CudaStandin, SplitBeforeTwoKiB) {
  // Payloads below/above the 2048 B boundary live in different regions.
  auto mgr = fresh<CudaStandin>();
  void* below = nullptr;
  void* above = nullptr;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    below = mgr->malloc(t, 1900);
    above = mgr->malloc(t, 2100);
  });
  const auto gap = std::abs(static_cast<std::byte*>(above) -
                            static_cast<std::byte*>(below));
  EXPECT_GT(static_cast<std::size_t>(gap), 4u << 20)
      << "the two unit regions are megabytes apart";
}

TEST(CudaStandin, FreeMakesUnitsReusable) {
  // 40'000 alloc/free cycles of 100 B through a region that holds only
  // ~13'000 units: without reclamation the rotating first-fit would starve.
  Device small(8u << 20, GpuConfig{.num_sms = 2});
  CudaStandin mgr(small, 4u << 20);
  std::uint32_t failures = 0;
  small.launch(1, 1, [&](ThreadCtx& t) {
    for (int i = 0; i < 40'000; ++i) {
      void* p = mgr.malloc(t, 100);
      if (p == nullptr) {
        ++failures;
        break;
      }
      mgr.free(t, p);
    }
  });
  EXPECT_EQ(failures, 0u);
}

// The first-fit scan contract, pinned on a fresh 1-SM device: each probe is
// one malloc in its own launch, and it checks the returned arena offset and
// the launch's exact device loads and stores. A claim loads the lock word,
// the hint and every bitmap word the scan probes (a word is reloaded only
// when the scan moves to a different word), then stores one word per bitmap
// word it flips, the hint and the unlock (plus the 4 KiB region's side
// header). A failed claim stores only the unlock.
struct ScanProbe {
  std::int64_t offset = -1;  // arena offset of the result; -1 for nullptr
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  bool operator==(const ScanProbe&) const = default;
};

void PrintTo(const ScanProbe& p, std::ostream* os) {
  *os << "{offset " << p.offset << ", loads " << p.loads << ", stores "
      << p.stores << "}";
}

ScanProbe probe_malloc(Device& d, CudaStandin& mgr, std::size_t size) {
  void* p = nullptr;
  const gpu::LaunchStats s =
      d.launch(1, 1, [&](ThreadCtx& t) { p = mgr.malloc(t, size); });
  const std::int64_t offset =
      p == nullptr ? -1 : static_cast<std::int64_t>(d.arena().offset_of(p));
  return {offset, s.counters.atomic_load, s.counters.atomic_store};
}

std::vector<void*> malloc_n(Device& d, CudaStandin& mgr, std::size_t size,
                            std::size_t n) {
  std::vector<void*> ptrs(n, nullptr);
  d.launch(1, 1, [&](ThreadCtx& t) {
    for (void*& p : ptrs) p = mgr.malloc(t, size);
  });
  for (void* p : ptrs) EXPECT_NE(p, nullptr);
  return ptrs;
}

void free_all(Device& d, CudaStandin& mgr, const std::vector<void*>& ptrs) {
  d.launch(1, 1, [&](ThreadCtx& t) {
    for (void* p : ptrs) mgr.free(t, p);
  });
}

// The sub-range constructor on 400 KiB at the arena base: the 128 B region
// has 960 units (15 bitmap words) with data at offset 256, and the 4 KiB
// region has 54 units (one word) with data at offset 185'216.
constexpr std::size_t kScanHeap = 400u << 10;
constexpr std::int64_t kSmallData = 256;
constexpr std::int64_t kLargeData = 185'216;
constexpr std::size_t kOneSmallUnit = 64;     // + 32 B header = 1 unit
constexpr std::size_t kFourSmallUnits = 480;  // + 32 B header = 4 units

// Arena offset of the payload of a claim starting at 128 B unit `u`.
std::int64_t small_unit(std::int64_t u) { return kSmallData + u * 128 + 32; }

TEST(CudaStandin, ScanRunCrossesBitmapWord) {
  Device d(1u << 20, GpuConfig{.num_sms = 1});
  CudaStandin mgr(d.arena().data(), kScanHeap);
  // Fill all 960 units, so the hint wraps to unit 0, then free units 5,
  // 10-11 and 62-67: the first 4-unit run starts at 62 and ends in word 1.
  const auto ptrs = malloc_n(d, mgr, kOneSmallUnit, 960);
  free_all(d, mgr, {ptrs[5], ptrs[10], ptrs[11], ptrs[62], ptrs[63], ptrs[64],
                    ptrs[65], ptrs[66], ptrs[67]});
  EXPECT_EQ(probe_malloc(d, mgr, kFourSmallUnits),
            (ScanProbe{small_unit(62), 4, 4}));
  // From hint 66 only 2 units are free before the end; the wrap rescans
  // words 0 and 1 up to unit 69 and finds no 4-unit run.
  EXPECT_EQ(probe_malloc(d, mgr, kFourSmallUnits), (ScanProbe{-1, 18, 1}));
}

TEST(CudaStandin, ScanWrapResetsRunAtUnitZero) {
  Device d(1u << 20, GpuConfig{.num_sms = 1});
  CudaStandin mgr(d.arena().data(), kScanHeap);
  // Hint 957 leaves units 957-959 free; units 0-1 and 3-9 are freed too.
  // A run must not wrap the region end (957-959 + 0 would be 4 units), and
  // 0-1 is too short, so the claim is units 3-6.
  const auto ptrs = malloc_n(d, mgr, kOneSmallUnit, 957);
  free_all(d, mgr, {ptrs[0], ptrs[1], ptrs[3], ptrs[4], ptrs[5], ptrs[6],
                    ptrs[7], ptrs[8], ptrs[9]});
  EXPECT_EQ(probe_malloc(d, mgr, kFourSmallUnits),
            (ScanProbe{small_unit(3), 4, 3}));
}

TEST(CudaStandin, ScanOneWordRegionWrapDoesNotReload) {
  Device d(1u << 20, GpuConfig{.num_sms = 1});
  CudaStandin mgr(d.arena().data(), kScanHeap);
  free_all(d, mgr, malloc_n(d, mgr, 50 * 4096, 1));  // hint 50
  // Units 50-53 are too few; the wrap stays in word 0, so no reload.
  EXPECT_EQ(probe_malloc(d, mgr, 5 * 4096), (ScanProbe{kLargeData, 3, 4}));
  EXPECT_EQ(probe_malloc(d, mgr, 49 * 4096),
            (ScanProbe{kLargeData + 5 * 4096, 3, 4}));
  // Full: one load of word 0 covers the whole scan and the wrap.
  EXPECT_EQ(probe_malloc(d, mgr, 4096), (ScanProbe{-1, 3, 1}));
}

TEST(CudaStandin, ScanFullRegionReturnsNull) {
  Device d(1u << 20, GpuConfig{.num_sms = 1});
  CudaStandin mgr(d.arena().data(), kScanHeap);
  malloc_n(d, mgr, kOneSmallUnit, 960);
  // Start at unit 0: all 15 words, then the wrap reloads word 0.
  EXPECT_EQ(probe_malloc(d, mgr, kOneSmallUnit), (ScanProbe{-1, 18, 1}));
}

TEST(CudaStandin, ScanRunLongerThanAWordIn4KiBRegion) {
  // A 4 MiB device heap: the 4 KiB region has 561 units (9 words).
  Device d(8u << 20, GpuConfig{.num_sms = 1});
  CudaStandin mgr(d, 4u << 20);
  const auto a = malloc_n(d, mgr, 30 * 4096, 1);  // units 0-29
  malloc_n(d, mgr, 10 * 4096, 1);                 // units 30-39
  const auto c = malloc_n(d, mgr, 20 * 4096, 1);  // units 40-59
  free_all(d, mgr, {a[0], c[0]});
  const std::int64_t large_data =
      static_cast<std::int64_t>(d.arena().offset_of(a[0]));
  // From hint 60: units 60-159 span words 0-2, one flip store per word.
  EXPECT_EQ(probe_malloc(d, mgr, 100 * 4096),
            (ScanProbe{large_data + 60 * 4096, 5, 6}));
  malloc_n(d, mgr, 400 * 4096, 1);  // units 160-559, hint 560
  // 70 units from hint 560: one free unit, then a full pass over words 0-8,
  // and the scan's last 69 steps wrap again over words 0-1.
  EXPECT_EQ(probe_malloc(d, mgr, 70 * 4096), (ScanProbe{-1, 14, 1}));
}

// The 4 KiB region is carved last, after every region's metadata, so it must
// get only the bytes that are left. These fill it with 4 KiB requests (one
// unit each) in 4,096-lane waves until one fails, and return the highest
// block end as an arena offset; first-fit from the rotating hint claims
// every unit before the first failure.
std::size_t fill_large_region(Device& d, core::MemoryManager& mgr) {
  const auto base = reinterpret_cast<std::uintptr_t>(d.arena().data());
  std::vector<void*> ptrs(4096);
  std::size_t top = 0;
  for (bool full = false; !full;) {
    d.launch(16, 256,
             [&](ThreadCtx& t) { ptrs[t.thread_rank()] = mgr.malloc(t, 4096); });
    for (void* p : ptrs) {
      if (p == nullptr) {
        full = true;
        continue;
      }
      top = std::max<std::size_t>(
          top, reinterpret_cast<std::uintptr_t>(p) - base + 4096);
    }
  }
  return top;
}

TEST(CudaStandin, LargeRegionEndsInsideHeap) {
  for (std::size_t mib : {10u, 16u, 20u, 64u, 256u}) {
    const std::size_t heap = mib << 20;
    Device d(heap, GpuConfig{.num_sms = 1});  // the arena is the heap
    CudaStandin mgr(d, heap);
    EXPECT_LE(fill_large_region(d, mgr), heap) << mib << " MiB";
  }
}

TEST(CudaStandin, RelaySliceEndsInsideHeap) {
  // Halloc relays requests above 3 KiB to a CudaStandin on its heap tail.
  constexpr std::size_t kHeap = 64u << 20;
  Device d(kHeap, GpuConfig{.num_sms = 1});
  Halloc mgr(d, kHeap);
  EXPECT_LE(fill_large_region(d, mgr), kHeap);
}

TEST(SubArena, CarvePastTheEndThrowsNamingIt) {
  std::vector<std::byte> buf(256);
  alloc_core::SubArena carver(buf.data(), buf.size());
  (void)carver.take<std::uint64_t>(31, 8, "table");  // 248 of 256 bytes
  try {
    (void)carver.take<std::uint64_t>(2, 8, "bitmap");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'bitmap'"), std::string::npos)
        << e.what();
  }
  alloc_core::SubArena tail(buf.data(), 250);
  (void)tail.take<std::byte>(249);
  std::size_t rest = 0;
  EXPECT_THROW((void)tail.take_rest(rest, 16, "pool"), std::invalid_argument);
}

// ---- ScatterAlloc --------------------------------------------------------------

TEST(ScatterAlloc, PageChunkSizeSetAtFirstAllocation) {
  auto mgr = fresh<ScatterAlloc>();
  void* p = nullptr;
  dev().launch(1, 1, [&](ThreadCtx& t) { p = mgr->malloc(t, 100); });
  ASSERT_NE(p, nullptr);
  std::size_t page_with_112 = ~std::size_t{0};
  for (std::size_t page = 0; page < mgr->num_pages(); ++page) {
    if (mgr->page_chunk_size(page) == 112) page_with_112 = page;  // 100 -> 112
  }
  ASSERT_NE(page_with_112, ~std::size_t{0});
  EXPECT_EQ(mgr->page_count(page_with_112), 1u);
}

TEST(ScatterAlloc, PageReleasedWhenAllChunksFreed) {
  auto mgr = fresh<ScatterAlloc>();
  std::vector<void*> ptrs(64);
  dev().launch(1, 64, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr->malloc(t, 256);
  });
  auto assigned_pages = [&] {
    std::size_t count = 0;
    for (std::size_t page = 0; page < mgr->num_pages(); ++page) {
      if (mgr->page_chunk_size(page) != 0) ++count;
    }
    return count;
  };
  const auto before = assigned_pages();
  EXPECT_GT(before, 0u);
  dev().launch(1, 64, [&](ThreadCtx& t) {
    mgr->free(t, ptrs[t.thread_rank()]);
  });
  EXPECT_EQ(assigned_pages(), 0u) << "empty pages must reopen for any size";
}

TEST(ScatterAlloc, HierarchicalPagesServeSmallChunks) {
  // 16 B chunks -> 248 per page: needs the on-page second hierarchy level.
  auto mgr = fresh<ScatterAlloc>();
  std::vector<void*> ptrs(300, nullptr);
  dev().launch_n(300, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr->malloc(t, 16);
  });
  std::set<std::size_t> pages;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    pages.insert(dev().arena().offset_of(p) / 4096);
  }
  // 300 chunks at 248/page need >= 2 pages; the warp-scattered hash spreads
  // them over roughly one page per requesting warp (10 warps here) — the
  // scattering-vs-fragmentation trade-off §5 points out.
  EXPECT_GE(pages.size(), 2u);
  EXPECT_LE(pages.size(), 16u);
}

TEST(ScatterAlloc, MultiPagePathForLargeRequests) {
  auto mgr = fresh<ScatterAlloc>();
  std::vector<void*> ptrs(16, nullptr);
  dev().launch(1, 16, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr->malloc(t, 8000);  // > half page
  });
  std::vector<std::size_t> offs;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    offs.push_back(dev().arena().offset_of(p));
  }
  std::sort(offs.begin(), offs.end());
  for (std::size_t i = 1; i < offs.size(); ++i) {
    EXPECT_GE(offs[i] - offs[i - 1], 8000u);
  }
  // And they must be freeable.
  dev().launch(1, 16, [&](ThreadCtx& t) {
    mgr->free(t, ptrs[t.thread_rank()]);
  });
}

TEST(ScatterAlloc, SmallHeapKeepsOneChunkSuperBlock) {
  // After metadata, 8 MiB holds one of the two 4 MiB super blocks the
  // geometry asks for. The chunk region keeps it (trimming it to zero made
  // malloc_chunk divide by zero); the multi-page region is what goes.
  Device small(16u << 20, GpuConfig{.num_sms = 1});
  ScatterAlloc mgr(small, 8u << 20);
  std::vector<void*> ptrs(256, nullptr);
  small.launch_n(256, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr.malloc(t, 16u << (t.thread_rank() % 8));
  });
  for (void* p : ptrs) EXPECT_NE(p, nullptr);
  small.launch_n(256,
                 [&](ThreadCtx& t) { mgr.free(t, ptrs[t.thread_rank()]); });
  void* multi_page = &mgr;
  small.launch(1, 1, [&](ThreadCtx& t) { multi_page = mgr.malloc(t, 8000); });
  EXPECT_EQ(multi_page, nullptr);
  EXPECT_TRUE(mgr.audit().ok);
  // Below one super block the constructor refuses with a typed error.
  EXPECT_THROW(ScatterAlloc(small, 4u << 20), core::ConfigError);
}

TEST(ScatterAlloc, PinnedGeometryWrapsActiveSuperBlock) {
  // 8 KiB pages, 256-page super blocks, 16-page regions, stride 3: an 8 MiB
  // heap holds three 2 MiB super blocks, two of them for chunks. One lane
  // fills both with 4 KiB chunks (two per page), so the shared active super
  // block advances and wraps; a free in each then shows the wrapped probe
  // finding the hole. Offsets and atomic counts are pinned exactly.
  Device local(16u << 20, GpuConfig{.num_sms = 1});
  ScatterAlloc::Config cfg;
  cfg.page_size = 8192;
  cfg.pages_per_superblock = 256;
  cfg.pages_per_region = 16;
  cfg.hash_stride = 3;
  ScatterAlloc mgr(local, 8u << 20, cfg);
  ASSERT_EQ(mgr.num_pages(), 768u);
  auto off = [&](const void* p) { return local.arena().offset_of(p); };

  std::vector<void*> fill(1026, nullptr);
  const auto a = local.launch(1, 1, [&](ThreadCtx& t) {
    for (void*& p : fill) p = mgr.malloc(t, 4096);
  });
  for (std::size_t i = 0; i < 1024; ++i) ASSERT_NE(fill[i], nullptr) << i;
  EXPECT_EQ(fill[1024], nullptr);
  EXPECT_EQ(fill[1025], nullptr);
  std::set<void*> distinct(fill.begin(), fill.begin() + 1024);
  EXPECT_EQ(distinct.size(), 1024u);
  // Super block 0 spans offsets 16,384 to 2,113,535 (the metadata sits
  // below it); the probe walks it from the lane's hash in steps of 3 pages.
  EXPECT_EQ(off(fill[0]), 16'384u);
  EXPECT_EQ(off(fill[1]), 20'480u);
  EXPECT_EQ(off(fill[511]), 2'093'056u);
  EXPECT_EQ(off(fill[512]), 2'113'536u);
  EXPECT_EQ(off(fill[1023]), 4'190'208u);
  // 512 fresh-page claims and 5 active-super-block moves (0 -> 1 once, then
  // 1 -> 0 -> 1 for each failed call); no CAS fails on one lane.
  EXPECT_EQ(a.counters.atomic_load, 225'346u);
  EXPECT_EQ(a.counters.atomic_store, 512u);
  EXPECT_EQ(a.counters.atomic_rmw, 2'048u);
  EXPECT_EQ(a.counters.atomic_cas, 517u);
  EXPECT_EQ(a.counters.atomic_cas_failed, 0u);

  void* again[2] = {nullptr, nullptr};
  const auto b = local.launch(1, 1, [&](ThreadCtx& t) {
    mgr.free(t, fill[5]);
    mgr.free(t, fill[600]);
    again[0] = mgr.malloc(t, 4096);
    again[1] = mgr.malloc(t, 4096);
  });
  // The active super block is 1: the first malloc finds its hole there; the
  // second finds it full, wraps to super block 0 (the one CAS) and takes
  // the hole there.
  EXPECT_EQ(again[0], fill[600]);
  EXPECT_EQ(again[1], fill[5]);
  EXPECT_EQ(b.counters.atomic_load, 315u);
  EXPECT_EQ(b.counters.atomic_store, 0u);
  EXPECT_EQ(b.counters.atomic_rmw, 12u);
  EXPECT_EQ(b.counters.atomic_cas, 1u);
  EXPECT_EQ(b.counters.atomic_cas_failed, 0u);

  local.launch(1, 1, [&](ThreadCtx& t) {
    for (std::size_t i = 0; i < 1024; ++i) mgr.free(t, fill[i]);
  });
  // Two blocks of mixed sizes: hierarchical, bitfield and multi-page.
  constexpr std::size_t kSizes[8] = {16, 48, 100, 200, 1000, 4000, 9000,
                                     20000};
  std::vector<void*> mixed(128, nullptr);
  const auto c = local.launch(2, 64, [&](ThreadCtx& t) {
    mixed[t.thread_rank()] = mgr.malloc(t, kSizes[t.thread_rank() % 8]);
  });
  std::uint64_t digest = 0;
  for (std::size_t r = 0; r < mixed.size(); ++r) {
    ASSERT_NE(mixed[r], nullptr) << r;
    digest += off(mixed[r]) * (r + 1);
  }
  EXPECT_EQ(off(mixed[0]), 934'016u);
  EXPECT_EQ(off(mixed[6]), 4'210'688u);  // 9,000 B: the first multi-page run
  EXPECT_EQ(off(mixed[127]), 4'841'472u);
  // 200 B requests take 208 B chunks, which 8 KiB pages hold hierarchically
  // (FlatPagesHoldAtMost32Chunks).
  EXPECT_EQ(digest, 15'474'188'064u);
  EXPECT_EQ(c.counters.atomic_load, 458u);
  EXPECT_EQ(c.counters.atomic_store, 60u);
  EXPECT_EQ(c.counters.atomic_rmw, 172u);
  EXPECT_EQ(c.counters.atomic_cas, 60u);
  EXPECT_EQ(c.counters.atomic_cas_failed, 0u);
  local.launch(2, 64, [&](ThreadCtx& t) {
    mgr.free(t, mixed[t.thread_rank()]);
  });
  for (std::size_t page = 0; page < 512; ++page) {
    ASSERT_EQ(mgr.page_chunk_size(page), 0u) << page;
  }
  EXPECT_TRUE(mgr.audit().ok);
}

TEST(ScatterAlloc, FlatPagesHoldAtMost32Chunks) {
  // A flat page tracks its chunks in one 32-bit usage word. On 8 KiB pages
  // 64 chunks of 128 B would fit, so 128 B chunks take the on-page
  // hierarchy there (63 per page after its level-2 words); a flat page
  // would run out of usage bits after 32 and spin the 33rd reservation.
  GpuConfig gpu{.num_sms = 1};
  gpu.deadlock_pass_limit = 1u << 16;
  Device local(16u << 20, gpu);
  ScatterAlloc::Config cfg;
  cfg.page_size = 8192;
  cfg.pages_per_superblock = 256;
  ScatterAlloc mgr(local, 8u << 20, cfg);
  std::vector<void*> ptrs(64, nullptr);
  local.launch(1, 1, [&](ThreadCtx& t) {
    for (void*& p : ptrs) p = mgr.malloc(t, 128);
  });
  std::set<std::size_t> pages;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    pages.insert(local.arena().offset_of(p) / 8192);
  }
  EXPECT_EQ(std::set<void*>(ptrs.begin(), ptrs.end()).size(), 64u);
  EXPECT_EQ(pages.size(), 2u);
  EXPECT_TRUE(mgr.audit().ok);
  local.launch(1, 1, [&](ThreadCtx& t) {
    for (void* p : ptrs) mgr.free(t, p);
  });
  for (std::size_t page = 0; page < mgr.num_pages(); ++page) {
    ASSERT_EQ(mgr.page_chunk_size(page), 0u) << page;
  }
}

TEST(ScatterAlloc, ConstructorRejectsNonPow2Geometry) {
  // A Config built in code skips the "{k=v}" parser; the constructor still
  // runs the schema's checks, since the per-call paths shift by all three.
  Device local(16u << 20, GpuConfig{.num_sms = 1});
  const std::pair<std::size_t ScatterAlloc::Config::*, const char*> fields[] =
      {{&ScatterAlloc::Config::page_size, "page_size"},
       {&ScatterAlloc::Config::pages_per_superblock, "pages_per_superblock"},
       {&ScatterAlloc::Config::pages_per_region, "pages_per_region"}};
  for (const auto& [member, name] : fields) {
    ScatterAlloc::Config cfg;
    cfg.*member = 3 * (cfg.*member / 4);
    try {
      ScatterAlloc mgr(local, 8u << 20, cfg);
      ADD_FAILURE() << name << " accepted";
    } catch (const core::ConfigError& e) {
      EXPECT_EQ(e.kind(), core::ConfigError::Kind::kNotPow2);
      EXPECT_EQ(e.field(), name);
    }
  }
}

// ---- Reg-Eff -------------------------------------------------------------------

class RegEffVariants : public ::testing::TestWithParam<RegEffAlloc::Config> {};

TEST_P(RegEffVariants, SplitThenMergeRestoresChunkCount) {
  dev().arena().clear();
  RegEffAlloc mgr(dev(), kHeap, GetParam());
  std::size_t before = 0, during = 0, after = 0;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    before = mgr.count_free_chunks(t);
    void* a = mgr.malloc(t, 100);
    void* b = mgr.malloc(t, 100);
    during = mgr.count_free_chunks(t);
    mgr.free(t, b);  // free b first: merges with the free remainder
    mgr.free(t, a);
    after = mgr.count_free_chunks(t);
  });
  EXPECT_GT(before, 0u);
  EXPECT_LE(during, before + 2);
  // Merge-on-free keeps the chunk count from growing monotonically.
  EXPECT_LE(after, before + 2);
}

TEST_P(RegEffVariants, ChurnDoesNotLeak) {
  dev().arena().clear();
  RegEffAlloc mgr(dev(), 8u << 20, GetParam());
  std::uint32_t failures = 0;
  dev().launch_n(256, [&](ThreadCtx& t) {
    for (int i = 0; i < 16; ++i) {
      void* p = mgr.malloc(t, 48);
      if (p == nullptr) {
        t.atomic_add(&failures, 1u);
        continue;
      }
      mgr.free(t, p);
    }
  });
  EXPECT_EQ(failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllFour, RegEffVariants,
    ::testing::Values(RegEffAlloc::Config{.fused = false, .multi = false},
                      RegEffAlloc::Config{.fused = true, .multi = false},
                      RegEffAlloc::Config{.fused = false, .multi = true},
                      RegEffAlloc::Config{.fused = true, .multi = true}),
    [](const auto& info) {
      return std::string(info.param.fused ? "Fused" : "Plain") +
             (info.param.multi ? "Multi" : "Single");
    });

// ---- Halloc -------------------------------------------------------------------

TEST(Halloc, BlocksCarryNoHeaders) {
  auto mgr = fresh<Halloc>();
  std::vector<void*> ptrs(8, nullptr);
  dev().launch(1, 8, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr->malloc(t, 32);
  });
  // Headerless blocks: pointers are pure index arithmetic — 32 B apart
  // (modulo the hash scatter) inside a single 2 MiB slab.
  std::vector<std::size_t> offs;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    offs.push_back(dev().arena().offset_of(p));
  }
  std::sort(offs.begin(), offs.end());
  EXPECT_LT(offs.back() - offs.front(), 2u << 20) << "one head slab";
  for (const std::size_t off : offs) {
    EXPECT_EQ((off - offs.front()) % 32, 0u)
        << "block positions are pure index arithmetic";
  }
}

TEST(Halloc, LargeRequestsRelayToCuda) {
  auto mgr = fresh<Halloc>();
  void* small = nullptr;
  void* large = nullptr;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    small = mgr->malloc(t, 1024);
    large = mgr->malloc(t, 4096);  // > 3 KiB -> CUDA section
    mgr->free(t, large);
    mgr->free(t, small);
  });
  ASSERT_NE(large, nullptr);
  const auto gap = std::abs(static_cast<std::byte*>(large) -
                            static_cast<std::byte*>(small));
  EXPECT_GT(static_cast<std::size_t>(gap), 8u << 20)
      << "relayed block lives in the separate CUDA section";
}

TEST(Halloc, EmptySlabSwitchesSizeClass) {
  Device small(16u << 20, GpuConfig{.num_sms = 2});
  Halloc mgr(small, 12u << 20,
             Halloc::Config{.slab_bytes = 1u << 20, .relay_percent = 20});
  // Fill one slab's worth of 16 B blocks, free them, then allocate 2048 B:
  // with only a handful of slabs the freed slab must be recycled.
  constexpr std::size_t kN = 1'024;
  std::vector<void*> ptrs(kN);
  small.launch_n(kN, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr.malloc(t, 16);
  });
  small.launch_n(kN, [&](ThreadCtx& t) { mgr.free(t, ptrs[t.thread_rank()]); });
  std::uint32_t failures = 0;
  small.launch_n(kN, [&](ThreadCtx& t) {
    if (mgr.malloc(t, 2048) == nullptr) t.atomic_add(&failures, 1u);
  });
  // 1024 x 2 KiB = 2 MiB needs several slabs including recycled ones.
  EXPECT_EQ(failures, 0u);
}

// ---- XMalloc -------------------------------------------------------------------

TEST(XMalloc, BasicblocksComeFromSuperblocks) {
  auto mgr = fresh<XMalloc>(XMalloc::Config{});
  std::vector<void*> ptrs(64, nullptr);
  dev().launch(1, 64, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr->malloc(t, 64);
  });
  // 64 allocations of one class = exactly 2 Superblocks of 32 Basicblocks;
  // blocks within one superblock are 16 B header + 64 B payload apart.
  std::vector<std::size_t> offs;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    offs.push_back(dev().arena().offset_of(p));
  }
  std::sort(offs.begin(), offs.end());
  std::size_t stride_80 = 0;
  for (std::size_t i = 1; i < offs.size(); ++i) {
    if (offs[i] - offs[i - 1] == 80) ++stride_80;
  }
  EXPECT_GE(stride_80, 60u) << "within-superblock stride is 80 B";
}

TEST(XMalloc, FreedBlocksRecycleThroughFifo) {
  // The first-level buffer is a FIFO: a freed Basicblock re-enters at the
  // back and resurfaces after the 31 sibling blocks of its Superblock.
  auto mgr = fresh<XMalloc>(XMalloc::Config{});
  void* first = nullptr;
  bool resurfaced = false;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    first = mgr->malloc(t, 128);
    mgr->free(t, first);
    for (int i = 0; i < 32 && !resurfaced; ++i) {
      resurfaced = mgr->malloc(t, 128) == first;
    }
  });
  EXPECT_TRUE(resurfaced);
}

TEST(XMalloc, LargePathUsesMemoryblockList) {
  auto mgr = fresh<XMalloc>(XMalloc::Config{});
  void* a = nullptr;
  void* b = nullptr;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    a = mgr->malloc(t, 100'000);
    b = mgr->malloc(t, 100'000);
    mgr->free(t, a);
    mgr->free(t, b);
    // After both frees the blocks merge; a bigger allocation must fit.
    void* big = mgr->malloc(t, 150'000);
    EXPECT_NE(big, nullptr);
    mgr->free(t, big);
  });
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
}

TEST(XMalloc, LargePathStormNeverReportsSpuriousOom) {
  // Every lane claims the big tail block in turn and splits it, so a walker
  // can find the tail held by a mid-split winner pass after pass. Those
  // passes are contention, not exhaustion: the heap never holds more than
  // the 4,096 live blocks (24 MiB of 64 MiB) and no malloc may fail.
  for (const unsigned sms : {2u, 4u}) {
    for (int heap = 0; heap < 6; ++heap) {
      Device storm(72u << 20, GpuConfig{.num_sms = sms});
      XMalloc mgr(storm, 64u << 20);
      std::uint64_t failed = 0;
      for (int launch = 0; launch < 3; ++launch) {
        storm.launch_n(4096, [&](ThreadCtx& t) {
          void* p = mgr.malloc(t, 6000);
          if (p == nullptr) {
            t.atomic_add(&failed, std::uint64_t{1});
            return;
          }
          mgr.free(t, p);
        });
      }
      EXPECT_EQ(failed, 0u) << sms << " SMs, heap " << heap;
    }
  }
}

TEST(XMalloc, ExhaustedLargePathGivesUpAfterFruitlessBudget) {
  // At real exhaustion every fitting block is a finished allocation and no
  // hold is in flight, so a failing malloc spends the fruitless-pass budget
  // (one backoff per pass) instead of the contended one.
  Device one(8u << 20, GpuConfig{.num_sms = 1});
  XMalloc mgr(one, 4u << 20);
  std::uint64_t filled = 0;
  one.launch(1, 1, [&](ThreadCtx& t) {
    while (mgr.malloc(t, 6000) != nullptr) ++filled;
  });
  EXPECT_EQ(filled, 562u) << "giving up early must not cost fill";
  void* extra = &filled;
  const auto stats =
      one.launch(1, 1, [&](ThreadCtx& t) { extra = mgr.malloc(t, 6000); });
  EXPECT_EQ(extra, nullptr);
  EXPECT_LE(stats.counters.backoffs, ListHeap::kMaxFruitlessPasses);
}

// ---- FDGMalloc -----------------------------------------------------------------

TEST(FdgMalloc, WarpSharesOneSuperblock) {
  auto mgr = fresh<FDGMalloc>(FDGMalloc::Config{});
  std::vector<void*> ptrs(32, nullptr);
  dev().launch(1, 32, [&](ThreadCtx& t) {
    ptrs[t.lane_id()] = mgr->warp_malloc(t, 32);
  });
  // All lanes' allocations are consecutive within one SuperBlock.
  for (unsigned i = 1; i < 32; ++i) {
    EXPECT_EQ(static_cast<std::byte*>(ptrs[i]) -
                  static_cast<std::byte*>(ptrs[i - 1]),
              32);
  }
}

TEST(FdgMalloc, WarpFreeAllReleasesEverything) {
  Device small(16u << 20, GpuConfig{.num_sms = 2});
  FDGMalloc mgr(small, 8u << 20, FDGMalloc::Config{});
  std::uint32_t failures = 0;
  // Without warp_free_all, 64 rounds x 8 KiB/warp would exhaust the heap.
  for (int round = 0; round < 64; ++round) {
    small.launch(1, 32, [&](ThreadCtx& t) {
      if (mgr.warp_malloc(t, 256) == nullptr) t.atomic_add(&failures, 1u);
      mgr.warp_free_all(t);
    });
  }
  EXPECT_EQ(failures, 0u);
}

// ---- Ouroboros -----------------------------------------------------------------

TEST(Ouroboros, PageChunksNeverReturnToPool) {
  // -P: a chunk assigned to a page size is never reusable (the paper's
  // criticism of the page queues).
  dev().arena().clear();
  Ouroboros mgr(dev(), 16u << 20,
                Ouroboros::Config{.queue = Ouroboros::QueueKind::kStandard,
                                  .chunk_based = false});
  const std::size_t chunk_bytes = mgr.config().chunk_bytes;
  std::vector<void*> ptrs(512, nullptr);
  dev().launch_n(512, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr.malloc(t, 16);
  });
  dev().launch_n(512, [&](ThreadCtx& t) { mgr.free(t, ptrs[t.thread_rank()]); });
  // Re-allocating the same size reuses the freed pages, so every page lies
  // in a chunk the first round split. (Addresses need not repeat: when
  // several SMs miss the empty page queue at kernel start, several chunks
  // are split, and the FIFO queue hands out their untouched pages first.)
  std::set<std::size_t> split_chunks;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    split_chunks.insert(dev().arena().offset_of(p) / chunk_bytes);
  }
  std::vector<void*> again(512, nullptr);
  dev().launch_n(512, [&](ThreadCtx& t) {
    again[t.thread_rank()] = mgr.malloc(t, 16);
  });
  std::size_t in_split_chunks = 0;
  for (void* p : again) {
    ASSERT_NE(p, nullptr);
    in_split_chunks +=
        split_chunks.count(dev().arena().offset_of(p) / chunk_bytes);
  }
  EXPECT_EQ(in_split_chunks, again.size());
}

TEST(Ouroboros, ChunkVariantRecyclesAcrossSizes) {
  dev().arena().clear();
  Ouroboros mgr(dev(), 16u << 20,
                Ouroboros::Config{.queue = Ouroboros::QueueKind::kStandard,
                                  .chunk_based = true});
  // Fill chunks with 16 B pages, free them all, then demand 4096 B pages:
  // the -C design must recycle the same chunks for the new size.
  std::vector<void*> ptrs(2'048, nullptr);
  dev().launch_n(2'048, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr.malloc(t, 16);
  });
  std::set<std::size_t> chunk_ids_16;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    chunk_ids_16.insert(dev().arena().offset_of(p) / 8192);
  }
  dev().launch_n(2'048, [&](ThreadCtx& t) { mgr.free(t, ptrs[t.thread_rank()]); });
  std::vector<void*> big(64, nullptr);
  dev().launch_n(64, [&](ThreadCtx& t) {
    big[t.thread_rank()] = mgr.malloc(t, 4096);
  });
  std::size_t recycled = 0;
  for (void* p : big) {
    ASSERT_NE(p, nullptr);
    recycled += chunk_ids_16.count(dev().arena().offset_of(p) / 8192);
  }
  EXPECT_GT(recycled, 0u) << "fully-freed chunks must serve other classes";
}

TEST(Ouroboros, RelayHandlesOversizedRequests) {
  dev().arena().clear();
  Ouroboros mgr(dev(), 32u << 20,
                Ouroboros::Config{.queue = Ouroboros::QueueKind::kVirtArray,
                                  .chunk_based = false});
  void* p = nullptr;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    p = mgr.malloc(t, 100'000);  // far beyond the largest page
    if (p != nullptr) mgr.free(t, p);
  });
  EXPECT_NE(p, nullptr);
}

TEST(Ouroboros, NoLeaksUnderDefaultCapacities) {
  dev().arena().clear();
  Ouroboros mgr(dev(), 64u << 20,
                Ouroboros::Config{.queue = Ouroboros::QueueKind::kVirtLinked,
                                  .chunk_based = false});
  std::vector<void*> ptrs(8'192, nullptr);
  for (int round = 0; round < 3; ++round) {
    dev().launch_n(8'192, [&](ThreadCtx& t) {
      ptrs[t.thread_rank()] = mgr.malloc(t, 64);
    });
    dev().launch_n(8'192, [&](ThreadCtx& t) {
      mgr.free(t, ptrs[t.thread_rank()]);
    });
  }
  std::uint64_t leaked = ~0ull;
  dev().launch(1, 1, [&](ThreadCtx& t) { leaked = mgr.leaked_pages(t); });
  EXPECT_EQ(leaked, 0u);
}

}  // namespace
}  // namespace gms::alloc
