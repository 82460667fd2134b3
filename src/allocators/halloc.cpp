#include "allocators/halloc.h"

#include "alloc_core/sub_arena.h"

namespace gms::alloc {

namespace {
constexpr core::AllocatorTraits kTraits{
    .name = "Halloc",
    .family = "Halloc",
    .paper_ref = "[1], GTC 2014",
    .year = 2014,
    .general_purpose = true,
    .supports_free = true,
    .individual_free = true,
    .max_direct_size = 3072,
    .relays_large_to_system = true,
    .its_safe = false,  // pre-Volta warp-synchronous build in the survey
    .stable = true,
    .malloc_state_bytes = 40,  // paper: ~40 registers for malloc
    .free_state_bytes = 24,    // 20-30 for free
};

// Step primes for the hash traversal, per class (in the spirit of Fig. 5's
// h(c,i): a size-dependent stride, co-prime with the block count, in practice
// faster than linear probing).
constexpr std::uint32_t kStepPrimes[4] = {7, 11, 13, 17};
}  // namespace

const alloc_core::SizeClassMap& Halloc::block_classes() {
  static const alloc_core::SizeClassMap map = alloc_core::SizeClassMap::ladder(
      {16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048,
       3072});
  return map;
}

const core::ConfigSchema<Halloc::Config>& Halloc::config_schema() {
  using core::Pow2;
  static const auto schema = [] {
    core::ConfigSchema<Config> s;
    s.u64("slab_bytes", &Config::slab_bytes, 1u << 16, 1u << 24, Pow2::kYes,
          {1u << 20, 1u << 21, 1u << 22, 1u << 23})
        .u64("relay_percent", &Config::relay_percent, 5, 80, Pow2::kNo,
             {20, 33, 50})
        .dbl("head_replace_fill", &Config::head_replace_fill, 0.5, 0.99,
             {0.7, 0.835, 0.95})
        .dbl("sparse_fill", &Config::sparse_fill, 0.0, 0.5, {0.02, 0.1})
        .dbl("busy_fill", &Config::busy_fill, 0.1, 0.99, {0.4, 0.6, 0.8})
        .ladder("ladder", &Config::ladder,
                {"16:24:32:48:64:96:128:192:256:384:512:768:1024:1536:2048:"
                 "3072",
                 "16:32:64:128:256:512:1024:2048:4096",
                 "16:48:128:384:1024:3072"})
        .check([](const Config& c) {
          if (c.sparse_fill >= c.busy_fill) {
            throw core::ConfigError(
                core::ConfigError::Kind::kOutOfRange, "sparse_fill",
                "config field 'sparse_fill': must be below busy_fill");
          }
          const auto rungs = core::parse_ladder_string(c.ladder, "ladder");
          if (rungs.back() > c.slab_bytes / 2) {
            throw core::ConfigError(
                core::ConfigError::Kind::kBadLadder, "ladder",
                "config field 'ladder': top rung exceeds slab_bytes/2");
          }
        });
    return s;
  }();
  return schema;
}

Halloc::Halloc(gpu::Device& dev, std::size_t heap_bytes, Config cfg)
    : cfg_(std::move(cfg)),
      classes_(alloc_core::SizeClassMap::parse(cfg_.ladder)),
      traits_(kTraits) {
  traits_.max_direct_size = classes_.max_bytes();
  core::Stopwatch timer;
  alloc_core::SubArena carver(dev, heap_bytes);
  const auto& classes = classes_;

  const std::size_t relay_bytes = heap_bytes * cfg_.relay_percent / 100;
  const std::size_t slab_region = heap_bytes - relay_bytes;
  // Bitmap sized for the densest class (16 B blocks).
  bitmap_words_ = (cfg_.slab_bytes / classes.class_bytes(0) + 63) / 64;
  num_slabs_ = static_cast<std::uint32_t>(
      slab_region /
      (cfg_.slab_bytes + sizeof(std::uint64_t) * (1 + bitmap_words_) + 64));
  if (num_slabs_ == 0) num_slabs_ = 1;

  slab_state_ = carver.take<std::uint64_t>(num_slabs_, alignof(std::uint64_t),
                                           "slab-state");
  bitmaps_ = carver.take<std::uint64_t>(num_slabs_ * bitmap_words_,
                                        alignof(std::uint64_t), "bitmaps");
  heads_ = carver.take<std::uint32_t>(classes.num_classes(),
                                      alignof(std::uint32_t), "heads");
  auto* queue_words = carver.take<std::uint64_t>(
      BoundedTicketQueue::layout_words(num_slabs_ + 1), alignof(std::uint64_t),
      "free-queue");
  free_slabs_ = BoundedTicketQueue(queue_words, num_slabs_ + 1);
  free_slabs_.init_host();
  slab_base_ = carver.take<std::byte>(std::size_t{num_slabs_} * cfg_.slab_bytes,
                                      4096, "slabs");

  // The paper measures Halloc's initialisation ~5.5x above the average: it
  // pre-registers every slab up front. We do the analogous work — every slab
  // is walked, its state and bitmap cleared, its id pushed to the free queue.
  for (std::uint32_t s = 0; s < num_slabs_; ++s) {
    slab_state_[s] = 0;
    for (std::size_t w = 0; w < bitmap_words_; ++w) slab_bitmap(s)[w] = 0;
    free_slabs_.push_host(s);
  }
  for (std::uint32_t c = 0; c < classes.num_classes(); ++c) {
    heads_[c] = kInvalid;
  }

  std::size_t rest = 0;
  auto* relay_base = carver.take_rest(rest, 16, "relay");
  relay_.engage(relay_base, rest);
  init_ms_ = timer.elapsed_ms();
}

const core::AllocatorTraits& Halloc::traits() const { return traits_; }

std::uint32_t Halloc::claim_block(gpu::ThreadCtx& ctx, std::uint32_t slab,
                                  std::uint32_t cls) {
  const std::uint32_t cap = capacity(cls);
  const std::size_t words = (cap + 63) / 64;
  std::uint64_t* bitmap = slab_bitmap(slab);
  // Hash traversal (Fig. 5): start word scattered by thread, stride by a
  // class-dependent prime so concurrent claimants fan out over the bitmap.
  const std::uint32_t start =
      (ctx.thread_rank() * 0x9E3779B9u + ctx.smid() * 7919u) % words;
  const std::uint32_t step = kStepPrimes[cls % 4] % words == 0
                                 ? 1
                                 : kStepPrimes[cls % 4];
  // Bounded sweeps: normally a count reservation guarantees a free bit, but
  // a racing class-switch of the slab can strand the reservation; the caller
  // rolls it back and re-resolves the head instead of spinning.
  for (unsigned sweep = 0; sweep < 512; ++sweep) {
    for (std::size_t i = 0; i < words; ++i) {
      const std::size_t w = (start + i * step) % words;
      const std::uint64_t seen = ctx.atomic_load(&bitmap[w]);
      std::uint64_t valid = ~0ull;
      if (w == words - 1 && cap % 64 != 0) valid = (1ull << (cap % 64)) - 1;
      const std::uint64_t free_bits = ~seen & valid;
      if (free_bits == 0) continue;
      const unsigned bit = static_cast<unsigned>(std::countr_zero(free_bits));
      if ((ctx.atomic_or(&bitmap[w], std::uint64_t{1} << bit) & (std::uint64_t{1} << bit)) == 0) {
        return static_cast<std::uint32_t>(w * 64 + bit);
      }
    }
    // A racing reservation holds a count slot but has not set its bit yet.
    ctx.backoff();
  }
  return kInvalid;
}

std::uint32_t Halloc::replace_head(gpu::ThreadCtx& ctx, std::uint32_t cls,
                                   std::uint32_t stale_head) {
  // Try a fresh slab first.
  std::uint64_t id = 0;
  if (free_slabs_.try_dequeue(ctx, id)) {
    auto slab = static_cast<std::uint32_t>(id);
    // Free slabs can switch between chunk/block sizes at will.
    if (ctx.atomic_cas(&slab_state_[slab], std::uint64_t{0},
                       make_state(cls + 1, 0)) == 0) {
      ctx.atomic_cas(&heads_[cls], stale_head, slab);
      return slab;
    }
    // Raced: somebody revived this id; fall through to scanning.
  }
  // Scan for a same-class slab with room — sparse and moderately filled slabs
  // first, busy slabs (> 60 %) only as the last resort, per the paper.
  std::uint32_t busy_fallback = kInvalid;
  const auto cap = capacity(cls);
  for (std::uint32_t s = 0; s < num_slabs_; ++s) {
    const std::uint64_t state = ctx.atomic_load(&slab_state_[s]);
    if (state_cls(state) != cls + 1) continue;
    const std::uint32_t count = state_count(state);
    if (count >= cap) continue;
    if (count > static_cast<std::uint32_t>(cfg_.busy_fill * cap)) {
      busy_fallback = s;
      continue;
    }
    ctx.atomic_cas(&heads_[cls], stale_head, s);
    return s;
  }
  if (busy_fallback != kInvalid) {
    ctx.atomic_cas(&heads_[cls], stale_head, busy_fallback);
  }
  return busy_fallback;
}

void* Halloc::malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  if (size == 0) size = 1;
  const auto& classes = classes_;
  const std::uint32_t cls = classes.class_for(size);
  if (cls == alloc_core::SizeClassMap::kNoClass) {
    return relay_.malloc(ctx, size);
  }
  const std::uint32_t cap = capacity(cls);

  for (unsigned attempt = 0; attempt < 64; ++attempt) {
    std::uint32_t slab = ctx.atomic_load(&heads_[cls]);
    if (slab == kInvalid ||
        state_cls(ctx.atomic_load(&slab_state_[slab])) != cls + 1) {
      slab = replace_head(ctx, cls, slab);
      if (slab == kInvalid) return nullptr;
    }
    // Reserve a slot with a *warp-aggregated* counter update — the group
    // issues one RMW, Halloc's signature trick. The 32-bit add targets the
    // count half of the packed 64-bit state (little-endian: low word), which
    // keeps the release path's full-word CAS atomic wrt. count and class.
    auto* count_word = reinterpret_cast<std::uint32_t*>(&slab_state_[slab]);
    const std::uint32_t prev = ctx.aggregated_atomic_add(count_word, 1u);
    if (state_cls(ctx.atomic_load(&slab_state_[slab])) != cls + 1 ||
        prev >= cap) {
      ctx.atomic_sub(count_word, 1u);
      replace_head(ctx, cls, slab);
      continue;
    }
    // Early head replacement beyond the 83.5 % fill level keeps later
    // claimants off nearly-full bitmaps.
    if (prev + 1 > static_cast<std::uint32_t>(cfg_.head_replace_fill * cap)) {
      replace_head(ctx, cls, slab);
    }
    const std::uint32_t block = claim_block(ctx, slab, cls);
    if (block == kInvalid) {
      ctx.atomic_sub(count_word, 1u);  // stranded reservation: retry clean
      replace_head(ctx, cls, slab);
      continue;
    }
    return slab_base_ + std::size_t{slab} * cfg_.slab_bytes +
           std::size_t{block} * classes.class_bytes(cls);
  }
  return nullptr;
}

void Halloc::free(gpu::ThreadCtx& ctx, void* ptr) {
  if (ptr == nullptr) return;
  auto* p = static_cast<std::byte*>(ptr);
  if (p < slab_base_ ||
      p >= slab_base_ + std::size_t{num_slabs_} * cfg_.slab_bytes) {
    relay_.free(ctx, ptr);
    return;
  }
  const std::size_t off = static_cast<std::size_t>(p - slab_base_);
  const auto slab = static_cast<std::uint32_t>(off / cfg_.slab_bytes);
  const std::uint64_t state = ctx.atomic_load(&slab_state_[slab]);
  const std::uint32_t cls = state_cls(state) - 1;
  const std::size_t in_slab = off % cfg_.slab_bytes;
  const auto block = static_cast<std::uint32_t>(
      in_slab / classes_.class_bytes(cls));
  ctx.atomic_and(&slab_bitmap(slab)[block / 64],
                 ~(std::uint64_t{1} << (block % 64)));
  auto* count_word = reinterpret_cast<std::uint32_t*>(&slab_state_[slab]);
  const std::uint32_t prev = ctx.aggregated_atomic_add(
      count_word, static_cast<std::uint32_t>(-1));
  if (prev == 1 && ctx.atomic_load(&heads_[cls]) != slab) {
    // Fully empty and not the active head: mark the slab free so any class
    // may take it ("free slabs can switch between chunk sizes").
    if (ctx.atomic_cas(&slab_state_[slab], make_state(cls + 1, 0),
                       std::uint64_t{0}) == make_state(cls + 1, 0)) {
      const bool ok = free_slabs_.try_enqueue(ctx, slab);
      (void)ok;  // queue is sized num_slabs_+1: cannot be full
      assert(ok);
    }
  }
}

}  // namespace gms::alloc
