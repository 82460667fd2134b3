#include "hostalloc/extent_best_fit.h"

#include <algorithm>

#include "core/utils.h"

namespace gms::hostalloc {

const core::ConfigSchema<ExtentBestFit::Config>&
ExtentBestFit::config_schema() {
  using core::Pow2;
  static const auto schema = [] {
    core::ConfigSchema<Config> s;
    s.u64("granule", &Config::granule, 16, 4096, Pow2::kYes,
          {64, 128, 256, 512})
        // 0 = auto-size from the pool (pool/1KiB clamped to [4096, 1M]).
        .u64("handoff_slots", &Config::handoff_slots, 0,
             std::uint64_t{1} << 20, Pow2::kNo, {0, 16384, 65536});
    return s;
  }();
  return schema;
}

ExtentBestFit::ExtentBestFit(gpu::Device& dev, std::size_t heap_bytes,
                             Config cfg)
    : HostManagerBase(dev, heap_bytes), cfg_(cfg) {
  const core::Stopwatch timer;

  slot_count_ = cfg_.handoff_slots;
  if (slot_count_ == 0) {
    slot_count_ = std::clamp<std::size_t>(heap_bytes / 1024, 4096,
                                          std::size_t{1} << 20);
  }
  slots_ = arena_.take<HandoffSlot>(slot_count_, 64, "handoff table");
  for (std::size_t i = 0; i < slot_count_; ++i) {
    slots_[i] = {kEmptySlot, 0};
  }
  free_slots_.reserve(slot_count_);
  for (std::size_t i = slot_count_; i > 0; --i) {
    free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
  }

  std::size_t pool_bytes = 0;
  std::byte* pool = arena_.take_rest(pool_bytes, cfg_.granule, "extent pool");
  pool_offset_ = arena_.offset_of(pool);
  pool_bytes_ = pool_bytes / cfg_.granule * cfg_.granule;
  extents_.reset(pool_offset_, pool_bytes_);

  init_ms_ = timer.elapsed_ms();
}

const core::AllocatorTraits& ExtentBestFit::traits() const {
  static const core::AllocatorTraits t{
      .name = "HostExtent",
      .family = "Host-based",
      .paper_ref = "[HB], DESIGN.md §14",
      .year = 2021,
      .general_purpose = true,
      .its_safe = true,  // no warp-synchronous assumptions: one planner lock
      .extension = true,  // beyond the paper's device-side population
      .host_based = true,
      .malloc_state_bytes = 112,  // map+size-index nodes + handoff slot
      .free_state_bytes = 112,
  };
  return t;
}

void* ExtentBestFit::malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  // Reject before rounding: SIZE_MAX-ish requests must not overflow.
  if (size > pool_bytes_) return nullptr;
  const std::uint64_t rounded =
      core::round_up(std::max<std::uint64_t>(size, 1), cfg_.granule);

  alloc::DeviceLockGuard guard(planner_lock(), ctx);
  std::uint64_t off = 0;
  if (!extents_.carve(rounded, off)) return nullptr;

  std::uint32_t slot = kNoSlot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    // Publish device-visible: length first, then the offset that marks the
    // slot live (release store orders the pair for device readers).
    ctx.atomic_store(&slots_[slot].bytes, rounded);
    ctx.atomic_store(&slots_[slot].offset, off);
  }
  live_.emplace(off, LiveExtent{rounded, slot});
  ++carves_;
  trace::mark(sink_, ctx, trace::EventKind::kHostCarve, rounded, off);
  return arena_.at(off);
}

void ExtentBestFit::free(gpu::ThreadCtx& ctx, void* ptr) {
  if (ptr == nullptr) return;
  if (!arena_.contains(ptr)) return;  // foreign pointer: not ours
  const std::uint64_t off = arena_.offset_of(ptr);

  alloc::DeviceLockGuard guard(planner_lock(), ctx);
  const auto it = live_.find(off);
  if (it == live_.end()) {
    ++invalid_frees_;  // double/invalid free: absorbed, never corrupts
    return;
  }
  const LiveExtent ext = it->second;
  live_.erase(it);
  if (ext.slot != kNoSlot) {
    ctx.atomic_store(&slots_[ext.slot].offset, kEmptySlot);
    ctx.atomic_store(&slots_[ext.slot].bytes, std::uint64_t{0});
    free_slots_.push_back(ext.slot);
  }
  const unsigned merges = extents_.insert(off, ext.bytes);
  if (merges > 0) {
    trace::mark(sink_, ctx, trace::EventKind::kHostCoalesce, ext.bytes, merges);
  }
}

std::uint64_t ExtentBestFit::resolve(gpu::ThreadCtx& ctx, std::uint32_t slot,
                                     std::uint64_t& bytes_out) const {
  if (slot >= slot_count_) {
    bytes_out = 0;
    return kEmptySlot;
  }
  const std::uint64_t off = ctx.atomic_load(&slots_[slot].offset);
  bytes_out = off == kEmptySlot ? 0 : ctx.atomic_load(&slots_[slot].bytes);
  return off;
}

std::uint32_t ExtentBestFit::slot_of(const void* ptr) const {
  if (!arena_.contains(ptr)) return kNoSlot;
  const auto it = live_.find(arena_.offset_of(ptr));
  return it == live_.end() ? kNoSlot : it->second.slot;
}

core::AuditResult ExtentBestFit::audit() {
  core::AuditResult r;
  r.supported = true;

  auto fail = [&r](std::string why) {
    ++r.failures;
    r.ok = false;
    if (r.detail.empty()) r.detail = std::move(why);
  };

  std::string why;
  if (!extents_.check(pool_offset_, pool_bytes_, r.structures_walked, why)) {
    fail("extent map: " + why);
  }

  // Live extents: in-pool, disjoint from each other and from free extents
  // (exploiting both maps' offset order), handoff slots publishing exactly
  // the host ledger's view.
  std::uint64_t live_bytes = 0;
  std::uint64_t prev_end = pool_offset_;
  auto free_it = extents_.by_offset().begin();
  for (const auto& [off, ext] : live_) {
    ++r.structures_walked;
    live_bytes += ext.bytes;
    if (off < pool_offset_ || off + ext.bytes > pool_offset_ + pool_bytes_) {
      fail("live extent outside the pool @ " + std::to_string(off));
      continue;
    }
    if (off < prev_end) {
      fail("overlapping live extents @ " + std::to_string(off));
    }
    prev_end = off + ext.bytes;
    while (free_it != extents_.by_offset().end() && free_it->first < off) {
      if (free_it->first + free_it->second > off) {
        fail("free extent overlaps live @ " + std::to_string(free_it->first));
      }
      ++free_it;
    }
    if (free_it != extents_.by_offset().end() &&
        free_it->first < off + ext.bytes) {
      fail("free extent inside live @ " + std::to_string(free_it->first));
    }
    if (ext.slot != kNoSlot) {
      if (ext.slot >= slot_count_) {
        fail("live extent names handoff slot " + std::to_string(ext.slot) +
             " beyond capacity");
      } else if (slots_[ext.slot].offset != off ||
                 slots_[ext.slot].bytes != ext.bytes) {
        fail("handoff slot " + std::to_string(ext.slot) +
             " disagrees with the host ledger @ " + std::to_string(off));
      }
    }
  }

  // Host planning runs only inside uninterruptible lock sections, so unlike
  // the device-side managers even a watchdog-cancelled kernel loses nothing:
  // strict byte accounting is a checked invariant, not best-effort.
  if (extents_.free_bytes() + live_bytes != pool_bytes_) {
    fail("pool accounting drift: free " +
         std::to_string(extents_.free_bytes()) + " + live " +
         std::to_string(live_bytes) + " != pool " +
         std::to_string(pool_bytes_));
  }

  // Vacant handoff slots must read empty (a stale publication would let the
  // device resolve a dangling handle).
  std::uint64_t published = 0;
  for (std::size_t i = 0; i < slot_count_; ++i) {
    if (slots_[i].offset != kEmptySlot) ++published;
  }
  ++r.structures_walked;  // the handoff table, as one structure
  std::uint64_t live_published = 0;
  for (const auto& [off, ext] : live_) {
    if (ext.slot != kNoSlot) ++live_published;
  }
  if (published != live_published) {
    fail("handoff table publishes " + std::to_string(published) +
         " slots for " + std::to_string(live_published) + " live extents");
  }
  return r;
}

}  // namespace gms::hostalloc
