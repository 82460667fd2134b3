#include "core/validating_manager.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "core/stack_spec.h"

namespace gms::core {

namespace {

constexpr std::uint32_t kLive = 0xA110C8EDu;
constexpr std::uint32_t kFreed = 0xDEADF4EEu;

constexpr std::size_t kGranule = 8;  ///< heap bytes per bitmap bit

/// A warp span word: start-bitmap words [lo, end) in bits 0-31 and 32-62
/// (end 0: empty, so a zeroed carve reads as all spans empty), and bit 63
/// set while a warp_free_all walks the span.
constexpr std::uint64_t kSpanWalking = std::uint64_t{1} << 63;

constexpr std::uint64_t span_with(std::uint64_t span, std::uint64_t word) {
  const std::uint64_t lo = span & 0xFFFFFFFFu;
  const std::uint64_t end = (span >> 32) & 0x7FFFFFFFu;
  const std::uint64_t walking = span & kSpanWalking;
  if (end == 0) return walking | ((word + 1) << 32) | word;
  return walking | (std::max(end, word + 1) << 32) | std::min(lo, word);
}

/// SplitMix64 finalizer — the canary generator.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

/// Lives in the 32-byte front redzone of every wrapped allocation. `magic`
/// is the free-side state machine: a CAS kLive -> kFreed wins exactly one
/// concurrent free, so double frees and pointers that never were allocation
/// starts are told apart before anything reaches the inner allocator.
struct ValidatingManager::Header {
  std::uint32_t magic;
  std::uint32_t rank;
  std::uint64_t size;  ///< payload bytes
  std::uint64_t canary0;
  std::uint64_t canary1;
};

ValidatingManager::ValidatingManager(gpu::Device& dev, std::size_t heap_bytes,
                                     const ManagerFactory& make_inner)
    : sink_(dev.config().num_sms) {
  static_assert(sizeof(Header) == kFrontBytes);
  const auto t0 = std::chrono::steady_clock::now();
  heap_base_ = dev.arena().data();

  // Tail carve: ~1/8th of the slice holds the shadow and start bitmaps and
  // the warp spans; the inner manager governs the untouched prefix so its
  // own carving still starts at arena offset 0. The bitmaps fill 1/32 of the
  // inner heap, the spans take one word per warp that allocates, and the
  // rest of the carve is never touched, so it costs no page; shrinking the
  // carve would move every +V inner heap, and with it the committed corpus
  // verdicts and replay oracles.
  const std::size_t meta_bytes =
      std::max<std::size_t>(heap_bytes / 8, std::size_t{16} * 1024);
  assert(heap_bytes > 2 * meta_bytes && "heap too small to validate");
  inner_heap_bytes_ = (heap_bytes - meta_bytes) & ~std::size_t{63};

  // Word w of either bitmap covers the same 512 B of inner heap.
  bitmap_words_ = (inner_heap_bytes_ / kGranule + 63) / 64;
  shadow_ = reinterpret_cast<std::uint64_t*>(heap_base_ + inner_heap_bytes_);
  starts_ = shadow_ + bitmap_words_;
  spans_ = starts_ + bitmap_words_;
  const std::size_t carve_words =
      (heap_bytes - inner_heap_bytes_) / sizeof(std::uint64_t);
  assert(2 * bitmap_words_ < carve_words && bitmap_words_ < (1u << 31));
  span_mask_ = std::bit_floor(carve_words - 2 * bitmap_words_) - 1;

  inner_ = make_inner(dev, inner_heap_bytes_);
  name_ = std::string(inner_->traits().name);
  name_ += StackSpec::suffix(StackSpec::Stage::kValidate);
  traits_ = inner_->traits();
  traits_.name = name_;
  // The redzones ride inside every inner request, so the payload size at
  // which the inner manager starts relaying shrinks by the overhead.
  if (traits_.max_direct_size != std::numeric_limits<std::size_t>::max()) {
    const std::size_t pad = kFrontBytes + kRearBytes;
    traits_.max_direct_size =
        traits_.max_direct_size > pad ? traits_.max_direct_size - pad : 0;
  }
  init_ms_ = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
}

std::uint64_t ValidatingManager::canary_word(std::uint64_t off,
                                             unsigned salt) const {
  return mix64(off ^ (0x5EEDC0DE0ull + salt * 0x9E3779B97F4A7C15ull));
}

// The validator's own bookkeeping uses std::atomic_ref directly instead of
// the ctx.atomic_* wrappers: validation overhead must not inflate the inner
// allocator's instrumentation counters.

bool ValidatingManager::shadow_mark(std::size_t off, std::size_t len) {
  bool overlap = false;
  std::size_t g = off / kGranule;
  const std::size_t end = (off + len + kGranule - 1) / kGranule;
  while (g < end) {
    const std::size_t word = g / 64;
    const std::size_t bit = g % 64;
    const auto n = static_cast<unsigned>(
        std::min<std::size_t>(64 - bit, end - g));
    const std::uint64_t mask =
        (n == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1)) << bit;
    const std::uint64_t old = std::atomic_ref<std::uint64_t>(shadow_[word])
                                  .fetch_or(mask, std::memory_order_acq_rel);
    overlap |= (old & mask) != 0;
    g += n;
  }
  return overlap;
}

void ValidatingManager::shadow_clear(std::size_t off, std::size_t len) {
  std::size_t g = off / kGranule;
  const std::size_t end = (off + len + kGranule - 1) / kGranule;
  while (g < end) {
    const std::size_t word = g / 64;
    const std::size_t bit = g % 64;
    const auto n = static_cast<unsigned>(
        std::min<std::size_t>(64 - bit, end - g));
    const std::uint64_t mask =
        (n == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1)) << bit;
    std::atomic_ref<std::uint64_t>(shadow_[word])
        .fetch_and(~mask, std::memory_order_acq_rel);
    g += n;
  }
}

template <typename Fn>
void ValidatingManager::for_each_start(std::size_t first_word,
                                       std::size_t end_word, Fn&& fn) const {
  for (std::size_t w = first_word; w < end_word; ++w) {
    std::uint64_t bits = std::atomic_ref<std::uint64_t>(starts_[w])
                             .load(std::memory_order_acquire);
    while (bits != 0) {
      const auto bit = static_cast<std::uint64_t>(std::countr_zero(bits));
      bits &= bits - 1;
      fn((w * 64 + bit) * kGranule);
    }
  }
}

ValidatingManager::Header* ValidatingManager::header_at(
    std::uint64_t payload_off) const {
  return reinterpret_cast<Header*>(heap_base_ + payload_off - kFrontBytes);
}

bool ValidatingManager::fits(std::uint64_t payload_off,
                             std::uint64_t size) const {
  return payload_off + kRearBytes <= inner_heap_bytes_ &&
         size <= inner_heap_bytes_ - payload_off - kRearBytes;
}

bool ValidatingManager::redzones_intact(std::uint64_t payload_off,
                                        std::uint64_t size) const {
  if (!fits(payload_off, size)) return false;
  const Header* h = header_at(payload_off);
  bool bad = h->canary0 != canary_word(payload_off, 0) ||
             h->canary1 != canary_word(payload_off, 1);
  std::uint64_t rear[2];  // may sit at any byte offset: memcpy, not a cast
  std::memcpy(rear, heap_base_ + payload_off + size, kRearBytes);
  bad |= rear[0] != canary_word(payload_off, 2) ||
         rear[1] != canary_word(payload_off, 3);
  return !bad;
}

const char* ValidatingManager::damage(std::uint64_t payload_off) const {
  Header* h = header_at(payload_off);
  if (std::atomic_ref<std::uint32_t>(h->magic).load(
          std::memory_order_acquire) != kLive) {
    return "start bit without live header magic";
  }
  if (!fits(payload_off, h->size)) {
    return "header size runs past the inner heap";
  }
  if (!redzones_intact(payload_off, h->size)) {
    return "redzone canary overwritten";
  }
  return nullptr;
}

void ValidatingManager::retire(gpu::ThreadCtx& ctx, std::uint64_t payload_off) {
  const std::uint64_t size = header_at(payload_off)->size;
  if (!redzones_intact(payload_off, size)) {
    sink_.record(ctx, ErrorKind::kRedzone, size, payload_off);
  }
  // A size past the heap leaves the block's shadow marked: the header no
  // longer says which granules were its own.
  if (fits(payload_off, size)) {
    shadow_clear(payload_off - kFrontBytes, size + kFrontBytes + kRearBytes);
  }
  const std::uint64_t g = payload_off / kGranule;
  std::atomic_ref<std::uint64_t>(starts_[g / 64])
      .fetch_and(~(std::uint64_t{1} << (g % 64)), std::memory_order_acq_rel);
}

void* ValidatingManager::wrap_allocation(gpu::ThreadCtx& ctx, std::size_t size,
                                         void* raw) {
  auto* bytes = static_cast<std::byte*>(raw);
  const std::size_t padded = size + kFrontBytes + kRearBytes;
  if (bytes < heap_base_ || bytes + padded > heap_base_ + inner_heap_bytes_ ||
      (reinterpret_cast<std::uintptr_t>(bytes) & 7u) != 0) {
    // Fail safe: never write redzones into memory we cannot vouch for, and
    // never hand it to the kernel. Not forwarded back to the inner free
    // either — a pointer this wrong may corrupt the inner heap further.
    sink_.record(ctx, ErrorKind::kOutOfHeap, size,
                 bytes >= heap_base_
                     ? static_cast<std::uint64_t>(bytes - heap_base_)
                     : 0);
    return nullptr;
  }
  const auto raw_off = static_cast<std::uint64_t>(bytes - heap_base_);
  const std::uint64_t payload_off = raw_off + kFrontBytes;
  if (shadow_mark(raw_off, padded)) {
    sink_.record(ctx, ErrorKind::kOverlap, size, payload_off);
  }
  auto* h = reinterpret_cast<Header*>(bytes);
  h->rank = ctx.thread_rank();
  h->size = size;
  h->canary0 = canary_word(payload_off, 0);
  h->canary1 = canary_word(payload_off, 1);
  const std::uint64_t rear[2] = {canary_word(payload_off, 2),
                                 canary_word(payload_off, 3)};
  std::memcpy(bytes + kFrontBytes + size, rear, kRearBytes);
  std::atomic_ref<std::uint32_t>(h->magic).store(kLive,
                                                 std::memory_order_release);
  const std::uint64_t g = payload_off / kGranule;
  std::atomic_ref<std::uint64_t>(starts_[g / 64])
      .fetch_or(std::uint64_t{1} << (g % 64), std::memory_order_acq_rel);
  widen_span(ctx.thread_rank() / gpu::kWarpSize, g / 64);
  return bytes + kFrontBytes;
}

void ValidatingManager::widen_span(std::uint32_t warp, std::uint64_t word) {
  // Always a successful RMW, even when the span already covers `word`: a
  // walk that takes the span later in its order then sees this block's start
  // bit, which was set before it.
  std::atomic_ref<std::uint64_t> span(spans_[warp & span_mask_]);
  std::uint64_t seen = span.load(std::memory_order_relaxed);
  while (!span.compare_exchange_weak(seen, span_with(seen, word),
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
  }
}

void* ValidatingManager::malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  const std::size_t pad = kFrontBytes + kRearBytes;
  if (size > std::numeric_limits<std::size_t>::max() - pad) return nullptr;
  void* raw = inner_->malloc(ctx, size + pad);
  if (raw == nullptr) return nullptr;  // OOM passes through untouched
  return wrap_allocation(ctx, size, raw);
}

void* ValidatingManager::warp_malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  const std::size_t pad = kFrontBytes + kRearBytes;
  if (size > std::numeric_limits<std::size_t>::max() - pad) return nullptr;
  void* raw = inner_->warp_malloc(ctx, size + pad);
  if (raw == nullptr) return nullptr;
  return wrap_allocation(ctx, size, raw);
}

void ValidatingManager::free(gpu::ThreadCtx& ctx, void* ptr) {
  if (ptr == nullptr) return;  // contract: free(nullptr) is a no-op
  auto* p = static_cast<std::byte*>(ptr);
  if (p < heap_base_ + kFrontBytes || p >= heap_base_ + inner_heap_bytes_) {
    sink_.record(ctx, ErrorKind::kForeignFree, 0,
                 p >= heap_base_ ? static_cast<std::uint64_t>(p - heap_base_)
                                 : 0);
    return;  // contained: never forwarded into the inner allocator
  }
  const auto payload_off = static_cast<std::uint64_t>(p - heap_base_);
  if ((payload_off & 7u) != 0) {
    sink_.record(ctx, ErrorKind::kUnalignedFree, 0, payload_off);
    return;
  }
  auto* h = reinterpret_cast<Header*>(p - kFrontBytes);
  std::atomic_ref<std::uint32_t> magic(h->magic);
  std::uint32_t seen = kLive;
  if (!magic.compare_exchange_strong(seen, kFreed,
                                     std::memory_order_acq_rel)) {
    // kFreed: a second free of a finished allocation. Anything else: a
    // pointer into the heap that never was an allocation start.
    if (seen == kFreed) {
      sink_.record(ctx, ErrorKind::kDoubleFree, h->size, payload_off);
    } else {
      sink_.record(ctx, ErrorKind::kUnalignedFree, 0, payload_off);
    }
    return;
  }
  retire(ctx, payload_off);
  inner_->free(ctx, h);
}

void ValidatingManager::release_warp_entries(gpu::ThreadCtx& ctx,
                                             std::uint32_t warp) {
  // Take the span empty and marked walking: allocations of warps sharing the
  // slot keep widening it meanwhile, and a second walk of the slot waits.
  // The holder never yields while walking, so a waiter is always on another
  // SM's OS thread.
  std::atomic_ref<std::uint64_t> span(spans_[warp & span_mask_]);
  std::uint64_t taken = span.load(std::memory_order_relaxed);
  for (;;) {
    if ((taken & kSpanWalking) != 0) {
      std::this_thread::yield();
      taken = span.load(std::memory_order_relaxed);
    } else if (span.compare_exchange_weak(taken, kSpanWalking,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
      break;
    }
  }
  const std::size_t lo = taken & 0xFFFFFFFFu;
  const std::size_t end = (taken >> 32) & 0x7FFFFFFFu;
  for_each_start(lo, end, [&](std::uint64_t off) {
    Header* h = header_at(off);
    // Lanes of other warps may be freeing and reusing their blocks while
    // this walk runs: their headers are read atomically and claimed by the
    // magic CAS, as in free(), so no block is retired twice.
    const std::uint32_t owner =
        std::atomic_ref<std::uint32_t>(h->rank).load(
            std::memory_order_relaxed) / gpu::kWarpSize;
    std::atomic_ref<std::uint32_t> magic(h->magic);
    if (owner == warp) {
      std::uint32_t seen = kLive;
      if (magic.compare_exchange_strong(seen, kFreed,
                                        std::memory_order_acq_rel)) {
        retire(ctx, off);
      }
    } else if (((owner ^ warp) & span_mask_) == 0 &&
               magic.load(std::memory_order_acquire) == kLive) {
      widen_span(owner, off / kGranule / 64);  // a slot mate's block stays
    }
  });
  span.fetch_and(~kSpanWalking, std::memory_order_acq_rel);
}

void ValidatingManager::warp_free_all(gpu::ThreadCtx& ctx) {
  // One lane retires the warp's live blocks before the inner manager
  // recycles the memory; the others wait at the coalesce and again inside
  // the inner warp_free_all's own leader election.
  const gpu::Coalesced g = ctx.coalesce();
  if (g.is_leader()) {
    release_warp_entries(ctx, ctx.thread_rank() / gpu::kWarpSize);
  }
  inner_->warp_free_all(ctx);
}

std::uint64_t ValidatingManager::live_count() const {
  std::uint64_t live = 0;
  for (std::size_t w = 0; w < bitmap_words_; ++w) {
    live += static_cast<std::uint64_t>(std::popcount(
        std::atomic_ref<std::uint64_t>(starts_[w])
            .load(std::memory_order_acquire)));
  }
  return live;
}

AuditResult ValidatingManager::audit() {
  AuditResult result;
  result.supported = true;
  for_each_start(0, bitmap_words_, [&](std::uint64_t off) {
    ++result.structures_walked;
    const char* what = damage(off);
    if (what == nullptr) return;
    ++result.failures;
    if (result.detail.empty()) {
      result.detail = std::string(what) + " (size " +
                      std::to_string(header_at(off)->size) + " B @heap+" +
                      std::to_string(off) + ")";
    }
  });
  result.ok = result.failures == 0;
  return result.merge(inner_->audit());
}

LaunchReport ValidatingManager::drain_report(bool leaks_are_errors) {
  std::uint64_t live = 0;
  for_each_start(0, bitmap_words_, [&](std::uint64_t off) {
    ++live;
    const Header* h = header_at(off);
    if (damage(off) != nullptr) {
      sink_.record_host(ErrorKind::kRedzone, h->rank, h->size, off);
    }
    if (leaks_are_errors) {
      sink_.record_host(ErrorKind::kLeak, h->rank, h->size, off);
    }
  });
  LaunchReport report = sink_.drain(std::string(inner_->traits().name));
  report.live_allocations = live;
  return report;
}

}  // namespace gms::core
