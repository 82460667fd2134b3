#include "core/validating_manager.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstring>
#include <limits>

#include "core/stack_spec.h"

namespace gms::core {

namespace {

constexpr std::uint32_t kLive = 0xA110C8EDu;
constexpr std::uint32_t kFreed = 0xDEADF4EEu;

constexpr std::uint64_t kSlotEmpty = 0;
constexpr std::uint64_t kSlotTombstone = ~std::uint64_t{0};

constexpr std::size_t kGranule = 8;  ///< shadow bitmap bytes per bit
constexpr unsigned kRankBits = 24;   ///< table meta: size << 24 | rank

/// SplitMix64 finalizer — table hash and canary generator.
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

  // Tail carve: ~1/8th of the slice becomes shadow bitmap + live table; the
  // inner manager governs the untouched prefix so its own carving still
  // starts at arena offset 0.
  const std::size_t meta_bytes =
      std::max<std::size_t>(heap_bytes / 8, std::size_t{16} * 1024);
  assert(heap_bytes > 2 * meta_bytes && "heap too small to validate");
  inner_heap_bytes_ = (heap_bytes - meta_bytes) & ~std::size_t{63};

  const std::size_t granules = inner_heap_bytes_ / kGranule;
  const std::size_t shadow_words = (granules + 63) / 64;
  shadow_ = reinterpret_cast<std::uint64_t*>(heap_base_ + inner_heap_bytes_);
  const std::size_t table_bytes =
      heap_bytes - inner_heap_bytes_ - shadow_words * sizeof(std::uint64_t);
  table_capacity_ = std::bit_floor(table_bytes / sizeof(TableSlot));
  assert(table_capacity_ >= 64);
  table_ = reinterpret_cast<TableSlot*>(
      heap_base_ + inner_heap_bytes_ + shadow_words * sizeof(std::uint64_t));
  std::memset(shadow_, 0, heap_bytes - inner_heap_bytes_);

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

void ValidatingManager::table_insert(gpu::ThreadCtx& ctx,
                                     std::uint64_t payload_off,
                                     std::uint64_t size, std::uint32_t rank) {
  const std::uint64_t key = payload_off + 1;
  const std::uint64_t meta = (size << kRankBits) |
                             (rank & ((std::uint32_t{1} << kRankBits) - 1));
  std::uint64_t idx = mix64(payload_off) & (table_capacity_ - 1);
  for (std::size_t probe = 0; probe < table_capacity_; ++probe) {
    TableSlot& slot = table_[idx];
    std::atomic_ref<std::uint64_t> ptr(slot.ptr);
    std::uint64_t cur = ptr.load(std::memory_order_relaxed);
    if ((cur == kSlotEmpty || cur == kSlotTombstone) &&
        ptr.compare_exchange_strong(cur, key, std::memory_order_acq_rel)) {
      std::atomic_ref<std::uint64_t>(slot.meta).store(
          meta, std::memory_order_release);
      return;
    }
    idx = (idx + 1) & (table_capacity_ - 1);
  }
  // Degraded mode: the allocation stays usable and redzone-protected via its
  // header; it just cannot appear in leak scans. Reported once.
  if (!table_overflowed_.exchange(true)) {
    sink_.record(ctx, ErrorKind::kTableFull, size, payload_off);
  }
}

void ValidatingManager::table_remove(std::uint64_t payload_off) {
  const std::uint64_t key = payload_off + 1;
  std::uint64_t idx = mix64(payload_off) & (table_capacity_ - 1);
  for (std::size_t probe = 0; probe < table_capacity_; ++probe) {
    std::atomic_ref<std::uint64_t> ptr(table_[idx].ptr);
    std::uint64_t cur = ptr.load(std::memory_order_acquire);
    if (cur == key &&
        ptr.compare_exchange_strong(cur, kSlotTombstone,
                                    std::memory_order_acq_rel)) {
      return;
    }
    if (cur == kSlotEmpty) return;  // not tracked (table overflow)
    idx = (idx + 1) & (table_capacity_ - 1);
  }
}

bool ValidatingManager::redzones_intact(std::uint64_t payload_off,
                                        std::uint64_t size) const {
  const auto* h = reinterpret_cast<const Header*>(heap_base_ + payload_off -
                                                  kFrontBytes);
  bool bad = h->canary0 != canary_word(payload_off, 0) ||
             h->canary1 != canary_word(payload_off, 1);
  std::uint64_t rear[2];  // may sit at any byte offset: memcpy, not a cast
  std::memcpy(rear, heap_base_ + payload_off + size, kRearBytes);
  bad |= rear[0] != canary_word(payload_off, 2) ||
         rear[1] != canary_word(payload_off, 3);
  return !bad;
}

void ValidatingManager::check_redzones(gpu::ThreadCtx* ctx,
                                       std::uint64_t payload_off,
                                       std::uint64_t size,
                                       std::uint32_t rank) {
  if (redzones_intact(payload_off, size)) return;
  if (ctx != nullptr) {
    sink_.record(*ctx, ErrorKind::kRedzone, size, payload_off);
  } else {
    sink_.record_host(ErrorKind::kRedzone, rank, size, payload_off);
  }
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
  table_insert(ctx, payload_off, size, ctx.thread_rank());
  return bytes + kFrontBytes;
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
  const std::uint64_t size = h->size;
  check_redzones(&ctx, payload_off, size, h->rank);
  shadow_clear(payload_off - kFrontBytes, size + kFrontBytes + kRearBytes);
  table_remove(payload_off);
  inner_->free(ctx, h);
}

void ValidatingManager::release_warp_entries(gpu::ThreadCtx& ctx,
                                             std::uint32_t warp) {
  for (std::size_t i = 0; i < table_capacity_; ++i) {
    std::atomic_ref<std::uint64_t> ptr(table_[i].ptr);
    std::uint64_t key = ptr.load(std::memory_order_acquire);
    if (key == kSlotEmpty || key == kSlotTombstone) continue;
    const std::uint64_t meta = std::atomic_ref<std::uint64_t>(table_[i].meta)
                                   .load(std::memory_order_acquire);
    const auto rank =
        static_cast<std::uint32_t>(meta & ((std::uint32_t{1} << kRankBits) - 1));
    if (rank / gpu::kWarpSize != warp) continue;
    if (!ptr.compare_exchange_strong(key, kSlotTombstone,
                                     std::memory_order_acq_rel)) {
      continue;
    }
    const std::uint64_t off = key - 1;
    const std::uint64_t size = meta >> kRankBits;
    check_redzones(&ctx, off, size, rank);
    auto* h = reinterpret_cast<Header*>(heap_base_ + off - kFrontBytes);
    std::atomic_ref<std::uint32_t>(h->magic).store(kFreed,
                                                   std::memory_order_release);
    shadow_clear(off - kFrontBytes, size + kFrontBytes + kRearBytes);
  }
}

void ValidatingManager::warp_free_all(gpu::ThreadCtx& ctx) {
  // One lane retires the warp's table entries before the inner manager
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
  for (std::size_t i = 0; i < table_capacity_; ++i) {
    const std::uint64_t key = std::atomic_ref<std::uint64_t>(table_[i].ptr)
                                  .load(std::memory_order_acquire);
    live += (key != kSlotEmpty && key != kSlotTombstone) ? 1 : 0;
  }
  return live;
}

AuditResult ValidatingManager::audit() {
  AuditResult result;
  result.supported = true;
  for (std::size_t i = 0; i < table_capacity_; ++i) {
    const std::uint64_t key = std::atomic_ref<std::uint64_t>(table_[i].ptr)
                                  .load(std::memory_order_acquire);
    if (key == kSlotEmpty || key == kSlotTombstone) continue;
    const std::uint64_t meta = std::atomic_ref<std::uint64_t>(table_[i].meta)
                                   .load(std::memory_order_acquire);
    const std::uint64_t off = key - 1;
    const std::uint64_t size = meta >> kRankBits;
    ++result.structures_walked;
    if (off < kFrontBytes || off + size + kRearBytes > inner_heap_bytes_) {
      ++result.failures;
      if (result.detail.empty()) {
        result.detail = "tracked block outside the inner heap @heap+" +
                        std::to_string(off);
      }
      continue;  // header/canary reads would be out of bounds
    }
    auto* h = reinterpret_cast<Header*>(heap_base_ + off - kFrontBytes);
    const std::uint32_t magic =
        std::atomic_ref<std::uint32_t>(h->magic).load(
            std::memory_order_acquire);
    bool bad = false;
    std::string what;
    if (magic != kLive) {
      bad = true;
      what = "live-table entry without live header magic";
    } else if (h->size != size) {
      bad = true;
      what = "header size disagrees with live table";
    } else if (!redzones_intact(off, size)) {
      bad = true;
      what = "redzone canary overwritten";
    }
    if (bad) {
      ++result.failures;
      if (result.detail.empty()) {
        result.detail = what + " (size " + std::to_string(size) + " B @heap+" +
                        std::to_string(off) + ")";
      }
    }
  }
  result.ok = result.failures == 0;
  return result.merge(inner_->audit());
}

LaunchReport ValidatingManager::drain_report(bool leaks_are_errors) {
  std::uint64_t live = 0;
  for (std::size_t i = 0; i < table_capacity_; ++i) {
    const std::uint64_t key = std::atomic_ref<std::uint64_t>(table_[i].ptr)
                                  .load(std::memory_order_acquire);
    if (key == kSlotEmpty || key == kSlotTombstone) continue;
    ++live;
    const std::uint64_t meta = std::atomic_ref<std::uint64_t>(table_[i].meta)
                                   .load(std::memory_order_acquire);
    const std::uint64_t off = key - 1;
    const std::uint64_t size = meta >> kRankBits;
    const auto rank =
        static_cast<std::uint32_t>(meta & ((std::uint32_t{1} << kRankBits) - 1));
    check_redzones(nullptr, off, size, rank);
    if (leaks_are_errors) sink_.record_host(ErrorKind::kLeak, rank, size, off);
  }
  LaunchReport report = sink_.drain(std::string(inner_->traits().name));
  report.live_allocations = live;
  return report;
}

}  // namespace gms::core
