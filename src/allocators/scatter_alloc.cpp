#include "allocators/scatter_alloc.h"

#include <atomic>
#include <bit>
#include <cstring>
#include <string>

#include "alloc_core/size_class_map.h"
#include "alloc_core/sub_arena.h"

namespace gms::alloc {

namespace {
constexpr core::AllocatorTraits kTraits{
    .name = "ScatterAlloc",
    .family = "ScatterAlloc",
    .paper_ref = "[17], InPar 2012",
    .year = 2012,
    .general_purpose = true,
    .supports_free = true,
    .individual_free = true,
    .resizable = true,  // super blocks may be chained in at kernel boundaries
    .its_safe = false,  // paper: needs warp-synchronous execution (<7.0)
    .stable = true,
    .malloc_state_bytes = 44,
    .free_state_bytes = 28,
};

// Scatter hash constants (primes, in the spirit of Fig. 2's k_S and k_mp;
// the warp factor provides the per-request scattering that gives the
// allocator its name — without it every thread of an SM probes the same
// page sequence and the linear probe degenerates).
constexpr std::uint64_t kSizeFactor = 38183;
constexpr std::uint64_t kSmFactor = 17497;
constexpr std::uint64_t kWarpFactor = 9949;

// Bytes reserved at the start of a hierarchical page for its 32 on-page
// level-2 usage words (1024 bits -> the paper's 1024-chunk page maximum).
constexpr std::size_t kHierBytes = 128;
}  // namespace

const core::ConfigSchema<ScatterAlloc::Config>& ScatterAlloc::config_schema() {
  using core::Pow2;
  static const auto schema = [] {
    core::ConfigSchema<Config> s;
    // page_size floor: hierarchical pages must fit kHierBytes of level-2
    // words plus at least one chunk. pages_per_superblock stays pow2 so an
    // odd hash_stride is coprime with it and the probe covers every page.
    s.u64("page_size", &Config::page_size, 512, std::size_t{1} << 20,
          Pow2::kYes, {2048, 4096, 8192, 16384})
        .u64("pages_per_superblock", &Config::pages_per_superblock, 64,
             std::size_t{1} << 16, Pow2::kYes, {256, 512, 1024, 2048})
        .u64("pages_per_region", &Config::pages_per_region, 8, 1024,
             Pow2::kYes, {16, 32, 64, 128})
        .u64("reserved_fraction", &Config::reserved_fraction, 2, 64,
             Pow2::kNo, {2, 4, 8, 16})
        .u64("probe_limit", &Config::probe_limit, 8, 1 << 16, Pow2::kNo,
             {32, 64, 128, 256, 512})
        .u64("hash_stride", &Config::hash_stride, 1, 255, Pow2::kNo,
             {1, 3, 7, 17, 31})
        .check([](const Config& c) {
          if (c.hash_stride % 2 == 0) {
            throw core::ConfigError(
                core::ConfigError::Kind::kOutOfRange, "hash_stride",
                "config field 'hash_stride': must be odd (coprime with the "
                "pow2 super-block page count)");
          }
          if (c.pages_per_region > c.pages_per_superblock) {
            throw core::ConfigError(
                core::ConfigError::Kind::kOutOfRange, "pages_per_region",
                "config field 'pages_per_region': exceeds "
                "pages_per_superblock");
          }
        });
    return s;
  }();
  return schema;
}

ScatterAlloc::ScatterAlloc(gpu::Device& dev, std::size_t heap_bytes,
                           Config cfg)
    : cfg_(config_schema().parse(config_schema().serialize(cfg), cfg)) {
  core::Stopwatch timer;
  // cfg_ has passed the schema's checks even when built in code, so the
  // geometry is all powers of two: the per-call paths shift and mask.
  page_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.page_size));
  page_mask_ = cfg_.page_size - 1;
  sb_shift_ =
      static_cast<unsigned>(std::countr_zero(cfg_.pages_per_superblock));
  sb_mask_ = cfg_.pages_per_superblock - 1;
  region_shift_ =
      static_cast<unsigned>(std::countr_zero(cfg_.pages_per_region));
  probes_ = std::min(cfg_.probe_limit, cfg_.pages_per_superblock);
  hier_below_ = static_cast<std::uint32_t>(
      std::max<std::size_t>(128, cfg_.page_size / 32));
  const std::size_t sb_bytes = cfg_.page_size * cfg_.pages_per_superblock;
  // Leave ~2% headroom for metadata when sizing the super block count.
  num_superblocks_ = (heap_bytes - heap_bytes / 50) / sb_bytes;
  if (num_superblocks_ < 2) num_superblocks_ = 2;
  const std::size_t reserved =
      std::max<std::size_t>(1, num_superblocks_ / cfg_.reserved_fraction);
  chunk_superblocks_ = num_superblocks_ - reserved;
  num_pages_ = num_superblocks_ * cfg_.pages_per_superblock;

  alloc_core::SubArena carver(dev, heap_bytes);
  page_state_ = carver.take<std::uint64_t>(num_pages_, alignof(std::uint64_t),
                                           "page-state");
  page_bitfield_ = carver.take<std::uint32_t>(
      num_pages_, alignof(std::uint32_t), "page-bitfield");
  const std::size_t regions =
      num_pages_ / cfg_.pages_per_region + 1;
  region_full_ = carver.take<std::uint32_t>(regions, alignof(std::uint32_t),
                                            "region-full");
  multi_bitmap_ = carver.take<std::uint64_t>(
      num_pages_ / 64 + 1, alignof(std::uint64_t), "multi-bitmap");
  multi_count_ = carver.take<std::uint32_t>(num_pages_, alignof(std::uint32_t),
                                            "multi-count");
  active_sb_ = carver.take<std::uint32_t>(1, alignof(std::uint32_t),
                                          "active-sb");
  std::size_t rest = 0;
  pages_ = carver.take_rest(rest, cfg_.page_size, "pages");
  // Trim super blocks the metadata left no room for: the chunk region first,
  // down to its last super block (malloc_chunk wraps over it), then the
  // multi-page region, whose requests then get nullptr.
  while (num_pages_ * cfg_.page_size > rest) {
    if (num_superblocks_ == 1) {
      throw core::ConfigError(
          core::ConfigError::Kind::kOutOfRange, "pages_per_superblock",
          "ScatterAlloc: a " + std::to_string(heap_bytes) +
              " B heap cannot hold one super block of " +
              std::to_string(sb_bytes) + " B plus its metadata");
    }
    --num_superblocks_;
    if (chunk_superblocks_ > 1) --chunk_superblocks_;
    num_pages_ -= cfg_.pages_per_superblock;
  }
  chunk_pages_ = chunk_superblocks_ << sb_shift_;
  init_ms_ = timer.elapsed_ms();
}

const core::AllocatorTraits& ScatterAlloc::traits() const { return kTraits; }

core::AuditResult ScatterAlloc::audit() {
  core::AuditResult result;
  result.supported = true;
  auto fail = [&result](std::string what) {
    ++result.failures;
    if (result.detail.empty()) result.detail = std::move(what);
  };
  for (std::size_t page = 0; page < chunk_pages_; ++page) {
    ++result.structures_walked;
    const std::uint64_t state =
        std::atomic_ref<std::uint64_t>(page_state_[page])
            .load(std::memory_order_acquire);
    if (state == 0) continue;  // unassigned
    if ((state & kInitFlag) != 0) {
      // claim_fresh_page never yields while it owns the flag, so a set flag
      // at quiescence means the state word was overwritten.
      fail("scatter: page " + std::to_string(page) +
           " stuck mid-initialisation");
      continue;
    }
    const std::uint32_t chunk = state_chunk(state);
    if (chunk == 0 || chunk % 16 != 0 || chunk > cfg_.page_size / 2) {
      fail("scatter: page " + std::to_string(page) +
           " carries impossible chunk size " + std::to_string(chunk));
      continue;
    }
    const std::uint32_t count = state_count(state);
    if (count > page_capacity(chunk)) {
      fail("scatter: page " + std::to_string(page) + " fill count " +
           std::to_string(count) + " exceeds capacity " +
           std::to_string(page_capacity(chunk)));
    }
  }
  for (std::size_t page = chunk_pages_; page < num_pages_; ++page) {
    ++result.structures_walked;
    const std::uint32_t k = std::atomic_ref<std::uint32_t>(multi_count_[page])
                                .load(std::memory_order_acquire);
    if (k == 0) continue;
    // Runs never cross a bitmap word and fit the reserved super blocks.
    if (k > 64 || page % 64 + k > 64 || page + k > num_pages_) {
      fail("scatter: multi-page run @" + std::to_string(page) + " of " +
           std::to_string(k) + " pages is out of range");
      continue;
    }
    const std::uint64_t mask = (k == 64 ? ~0ull : ((1ull << k) - 1))
                               << (page % 64);
    const std::uint64_t word =
        std::atomic_ref<std::uint64_t>(multi_bitmap_[page / 64])
            .load(std::memory_order_acquire);
    if ((word & mask) != mask) {
      fail("scatter: multi-page run @" + std::to_string(page) +
           " recorded without its claim bits");
    }
  }
  result.ok = result.failures == 0;
  return result;
}

std::uint32_t ScatterAlloc::page_capacity(std::uint32_t chunk) const {
  if (hierarchical(chunk)) {
    const auto cap = (cfg_.page_size - kHierBytes) / chunk;
    return static_cast<std::uint32_t>(std::min<std::size_t>(cap, 1024));
  }
  return static_cast<std::uint32_t>(cfg_.page_size / chunk);
}

std::uint32_t* ScatterAlloc::usage_words(std::size_t page,
                                         std::uint32_t chunk) {
  if (hierarchical(chunk)) {
    return reinterpret_cast<std::uint32_t*>(pages_ + (page << page_shift_));
  }
  return &page_bitfield_[page];
}

std::byte* ScatterAlloc::chunk_base(std::size_t page, std::uint32_t chunk) {
  return pages_ + (page << page_shift_) +
         (hierarchical(chunk) ? kHierBytes : 0);
}

std::uint32_t ScatterAlloc::page_chunk_size(std::size_t page) const {
  return state_chunk(page_state_[page]);
}
std::uint32_t ScatterAlloc::page_count(std::size_t page) const {
  return state_count(page_state_[page]);
}

void* ScatterAlloc::claim_fresh_page(gpu::ThreadCtx& ctx, std::size_t page,
                                     std::uint32_t chunk, std::uint32_t cap) {
  const std::uint64_t claimed = make_state(chunk, 1) | kInitFlag;
  if (ctx.atomic_cas(&page_state_[page], std::uint64_t{0}, claimed) != 0) {
    return nullptr;  // somebody else claimed it first
  }
  // We own the page exclusively while the init flag is set: lay out the
  // usage hierarchy and take chunk 0 for ourselves.
  if (hierarchical(chunk)) {
    auto* words = usage_words(page, chunk);
    const std::uint32_t groups = (cap + 31) / 32;
    for (std::uint32_t g = 0; g < 32; ++g) {
      if (g >= groups) {
        words[g] = ~0u;
        continue;
      }
      const std::uint32_t valid =
          std::min<std::uint32_t>(32, cap - g * 32);
      words[g] = valid == 32 ? 0u : ~((1u << valid) - 1u);
    }
    words[0] |= 1u;  // our chunk
    ctx.atomic_store(&page_bitfield_[page],
                     groups == 1 && cap == 1 ? 1u : 0u);
  } else {
    const std::uint32_t invalid = cap == 32 ? 0u : ~((1u << cap) - 1u);
    ctx.atomic_store(&page_bitfield_[page], invalid | 1u);
  }
  // Publish: drop the init flag so other lanes may join the page.
  ctx.atomic_and(&page_state_[page], ~kInitFlag);
  if (cap == 1) {
    ctx.atomic_add(&region_full_[page >> region_shift_], 1u);
  }
  return chunk_base(page, chunk);
}

void* ScatterAlloc::try_alloc_on_page(gpu::ThreadCtx& ctx, std::size_t page,
                                      std::uint32_t chunk, std::uint32_t cap) {
  // Reserve a slot first; the reservation guarantees a free bit exists.
  const std::uint64_t prev = ctx.atomic_add(&page_state_[page], std::uint64_t{1});
  if (state_chunk(prev) != chunk || (prev & kInitFlag) != 0 ||
      state_count(prev) >= cap) {
    ctx.atomic_sub(&page_state_[page], std::uint64_t{1});
    return nullptr;
  }
  if (state_count(prev) + 1 == cap) {
    ctx.atomic_add(&region_full_[page >> region_shift_], 1u);
  }

  // Scatter the bit search start per thread to avoid bit-level collisions.
  const std::uint32_t start = (ctx.thread_rank() * 0x9E3779B9u) >> 16;
  if (!hierarchical(chunk)) {
    std::uint32_t* word = &page_bitfield_[page];
    for (;;) {
      const std::uint32_t seen = ctx.atomic_load(word);
      std::uint32_t free_bits = ~seen;
      if (free_bits == 0) {
        ctx.backoff();  // a racing reservation has not set its bit yet
        continue;
      }
      // Rotate so the search begins at the scattered position.
      const unsigned rot = start % 32;
      const std::uint32_t rotated = (free_bits >> rot) | (free_bits << (32 - rot) % 32);
      unsigned bit = (static_cast<unsigned>(std::countr_zero(
                          rotated == 0 ? free_bits : rotated)) +
                      (rotated == 0 ? 0 : rot)) %
                     32;
      if ((ctx.atomic_or(word, 1u << bit) & (1u << bit)) == 0) {
        return chunk_base(page, chunk) + bit * std::size_t{chunk};
      }
    }
  }

  // Hierarchical page: level 1 marks full groups, level 2 lives on the page.
  // Level 1 is strictly a *hint*: a concurrent free may clear a level-2 bit
  // after an allocator re-marked the group full, so when the hint claims
  // everything is full we must fall back to scanning the ground truth —
  // otherwise a reservation could spin on an invisible free chunk forever.
  auto* level2 = usage_words(page, chunk);
  const std::uint32_t groups = (cap + 31) / 32;
  const std::uint32_t group_mask =
      groups == 32 ? ~0u : ((1u << groups) - 1u);
  for (;;) {
    const std::uint32_t full = ctx.atomic_load(&page_bitfield_[page]);
    std::uint32_t candidates = ~full & group_mask;
    if (candidates == 0) candidates = group_mask;  // hint exhausted: scan all
    while (candidates != 0) {
      const unsigned g = static_cast<unsigned>(std::countr_zero(candidates));
      candidates &= candidates - 1;
      const std::uint32_t seen = ctx.atomic_load(&level2[g]);
      const std::uint32_t free_bits = ~seen;
      if (free_bits == 0) {
        // Group filled up under us: record it at level 1 and move on.
        ctx.atomic_or(&page_bitfield_[page], 1u << g);
        continue;
      }
      const unsigned bit = static_cast<unsigned>(std::countr_zero(free_bits));
      if ((ctx.atomic_or(&level2[g], 1u << bit) & (1u << bit)) == 0) {
        if ((seen | (1u << bit)) == ~0u) {
          ctx.atomic_or(&page_bitfield_[page], 1u << g);
        } else if ((full >> g) & 1u) {
          // Repair a stale "full" hint we scanned past.
          ctx.atomic_and(&page_bitfield_[page], ~(1u << g));
        }
        return chunk_base(page, chunk) +
               (g * 32 + bit) * std::size_t{chunk};
      }
    }
    ctx.backoff();  // racing reservations have not published their bits yet
  }
}

void* ScatterAlloc::malloc_chunk(gpu::ThreadCtx& ctx, std::uint32_t chunk) {
  const std::uint32_t cap = page_capacity(chunk);
  // Fig. 2: p = (size * k_S + mp * k_mp [+ warp * k_w]) mod pages/SB.
  const std::size_t p0 = (chunk * kSizeFactor + ctx.smid() * kSmFactor +
                          ctx.global_warp_id() * kWarpFactor) &
                         sb_mask_;
  // The active pointer only ever holds a chunk super block's index (zero
  // in the cleared arena, then the targets of the CAS below).
  std::size_t sb = ctx.atomic_load(active_sb_);
  for (std::size_t sb_step = 0; sb_step < chunk_superblocks_; ++sb_step) {
    const std::size_t sb_first_page = sb << sb_shift_;
    std::size_t page_in_sb = p0;
    for (std::size_t step = 0; step < probes_; ++step) {
      // Strided probe: hash_stride=1 is the paper's linear walk (and the
      // byte-identical default); odd strides decluster size collisions.
      const std::size_t page = sb_first_page | page_in_sb;
      page_in_sb = (page_in_sb + cfg_.hash_stride) & sb_mask_;
      // Region rejection: skip regions with no free chunk quickly.
      if (ctx.atomic_load(&region_full_[page >> region_shift_]) >=
          cfg_.pages_per_region) {
        continue;
      }
      const std::uint64_t state = ctx.atomic_load(&page_state_[page]);
      if (state == 0) {
        if (void* p = claim_fresh_page(ctx, page, chunk, cap)) return p;
        continue;  // lost the claim race; examine the page's new owner later
      }
      if (state_chunk(state) == chunk && (state & kInitFlag) == 0 &&
          state_count(state) < cap) {
        if (void* p = try_alloc_on_page(ctx, page, chunk, cap)) return p;
      }
    }
    // This super block looks exhausted for our size: advance the shared
    // active pointer (paper: next super block investigated past fill level).
    const std::size_t next = sb + 1 == chunk_superblocks_ ? 0 : sb + 1;
    ctx.atomic_cas(active_sb_, static_cast<std::uint32_t>(sb),
                   static_cast<std::uint32_t>(next));
    sb = next;
  }
  return nullptr;
}

void* ScatterAlloc::malloc_multi_page(gpu::ThreadCtx& ctx, std::size_t size) {
  // Page count is tracked in a side array, so 4/8 KiB requests fit their
  // pages exactly (no in-band header stealing a whole extra page).
  const std::size_t k = (size + page_mask_) >> page_shift_;
  if (k > 64) return nullptr;  // runs are confined to one bitmap word
  const std::size_t first_word = chunk_pages_ / 64;
  const std::size_t num_words = num_pages_ / 64;
  const std::uint32_t run_mask_bits = static_cast<std::uint32_t>(k);
  for (std::size_t w = first_word; w < num_words; ++w) {
    for (;;) {
      const std::uint64_t seen = ctx.atomic_load(&multi_bitmap_[w]);
      if (seen == ~0ull) break;
      // Find k consecutive zero bits inside this word.
      std::uint64_t free_bits = ~seen;
      std::uint64_t run = free_bits;
      for (std::uint32_t i = 1; i < run_mask_bits; ++i) run &= free_bits >> i;
      if (run == 0) break;
      const unsigned bit = static_cast<unsigned>(std::countr_zero(run));
      const std::uint64_t mask = ((k == 64 ? ~0ull : ((1ull << k) - 1)) << bit);
      if (ctx.atomic_cas(&multi_bitmap_[w], seen, seen | mask) == seen) {
        const std::size_t page = w * 64 + bit;
        ctx.atomic_store(&multi_count_[page], static_cast<std::uint32_t>(k));
        return pages_ + (page << page_shift_);
      }
      // CAS lost: re-read and retry this word.
    }
  }
  return nullptr;
}

void* ScatterAlloc::malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  if (size == 0) size = 1;
  // Multi-page runs are confined to one 64-bit bitmap word, so anything
  // beyond 64 pages is unserviceable; reject before the 32-bit rounding
  // below can truncate a huge request into a small (or zero) chunk size.
  if (size > std::size_t{64} * cfg_.page_size) return nullptr;
  const auto rounded =
      static_cast<std::uint32_t>(alloc_core::SizeClassMap::round16(size));
  if (rounded <= cfg_.page_size / 2) {
    return malloc_chunk(ctx, rounded);
  }
  return malloc_multi_page(ctx, size);
}

void ScatterAlloc::free_multi_page(gpu::ThreadCtx& ctx, void* ptr,
                                   std::size_t page) {
  (void)ptr;
  const std::size_t k = ctx.atomic_load(&multi_count_[page]);
  assert(k != 0 && "multi-page free of foreign pointer");
  ctx.atomic_store(&multi_count_[page], 0u);
  const std::size_t w = page / 64;
  const unsigned bit = page % 64;
  const std::uint64_t mask = ((k == 64 ? ~0ull : ((1ull << k) - 1)) << bit);
  ctx.atomic_and(&multi_bitmap_[w], ~mask);
}

void ScatterAlloc::free(gpu::ThreadCtx& ctx, void* ptr) {
  if (ptr == nullptr) return;
  const std::size_t off = static_cast<std::byte*>(ptr) - pages_;
  const std::size_t page = off >> page_shift_;
  if (page >= chunk_pages_) {
    free_multi_page(ctx, ptr, page);
    return;
  }
  const std::uint64_t state = ctx.atomic_load(&page_state_[page]);
  const std::uint32_t chunk = state_chunk(state);
  assert(chunk != 0 && "free on an unassigned page");
  const std::size_t in_page = off & page_mask_;
  const std::uint32_t cap = page_capacity(chunk);

  if (hierarchical(chunk)) {
    const std::size_t idx = (in_page - kHierBytes) / chunk;
    auto* level2 = usage_words(page, chunk);
    const unsigned g = static_cast<unsigned>(idx / 32);
    ctx.atomic_and(&level2[g], ~(1u << (idx % 32)));
    ctx.atomic_and(&page_bitfield_[page], ~(1u << g));
  } else {
    const std::size_t idx = in_page / chunk;
    ctx.atomic_and(&page_bitfield_[page], ~(1u << idx));
  }

  const std::uint64_t prev = ctx.atomic_sub(&page_state_[page], std::uint64_t{1});
  if (state_count(prev) == cap) {
    ctx.atomic_sub(&region_full_[page >> region_shift_], 1u);
  }
  if (state_count(prev) == 1) {
    // Last chunk gone: release the page for any future chunk size. The CAS
    // only succeeds while no new reservation has arrived.
    ctx.atomic_cas(&page_state_[page], make_state(chunk, 0), std::uint64_t{0});
  }
}

}  // namespace gms::alloc
