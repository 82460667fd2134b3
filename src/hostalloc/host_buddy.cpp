#include "hostalloc/host_buddy.h"

#include <algorithm>
#include <bit>

#include "core/utils.h"

namespace gms::hostalloc {

const core::ConfigSchema<HostBuddy::Config>& HostBuddy::config_schema() {
  using core::Pow2;
  static const auto schema = [] {
    core::ConfigSchema<Config> s;
    s.u64("min_block", &Config::min_block, 16, std::uint64_t{1} << 16,
          Pow2::kYes, {64, 128, 256, 512, 1024});
    return s;
  }();
  return schema;
}

HostBuddy::HostBuddy(gpu::Device& dev, std::size_t heap_bytes, Config cfg)
    : HostManagerBase(dev, heap_bytes), cfg_(cfg) {
  const core::Stopwatch timer;

  std::size_t rest = 0;
  std::byte* pool = arena_.take_rest(rest, cfg_.min_block, "buddy pool");
  pool_offset_ = arena_.offset_of(pool);
  // The classic buddy shape wants one power-of-two region; the sub-pow2
  // tail of the slice is the scheme's honest internal cost.
  pool_bytes_ = std::bit_floor(static_cast<std::uint64_t>(rest));
  max_order_ = static_cast<unsigned>(
      std::countr_zero(pool_bytes_ / cfg_.min_block));
  free_.resize(max_order_ + 1);
  free_[max_order_].insert(0);
  free_bytes_ = pool_bytes_;

  init_ms_ = timer.elapsed_ms();
}

const core::AllocatorTraits& HostBuddy::traits() const {
  static const core::AllocatorTraits t{
      .name = "HostBuddy",
      .family = "Host-based",
      .paper_ref = "[HB], DESIGN.md §14",
      .year = 2021,
      .general_purpose = true,
      .its_safe = true,
      .extension = true,
      .host_based = true,
      .malloc_state_bytes = 80,  // one free-set node + one live-map node
      .free_state_bytes = 80,
  };
  return t;
}

unsigned HostBuddy::order_for(std::uint64_t bytes) const {
  const std::uint64_t need =
      core::ceil_pow2(std::max(bytes, cfg_.min_block));
  return static_cast<unsigned>(std::countr_zero(need / cfg_.min_block));
}

void* HostBuddy::malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  if (size > pool_bytes_) return nullptr;  // before rounding: no overflow
  const unsigned order = order_for(std::max<std::uint64_t>(size, 1));

  alloc::DeviceLockGuard guard(planner_lock(), ctx);
  unsigned o = order;
  while (o <= max_order_ && free_[o].empty()) ++o;
  if (o > max_order_) return nullptr;

  // Lowest-offset block at the order, for deterministic placement.
  std::uint64_t off = *free_[o].begin();
  free_[o].erase(free_[o].begin());
  while (o > order) {
    --o;
    ++splits_;
    free_[o].insert(off + block_bytes(o));  // upper half stays free
  }
  live_.emplace(off, order);
  free_bytes_ -= block_bytes(order);
  trace::mark(sink_, ctx, trace::EventKind::kHostCarve, block_bytes(order),
              pool_offset_ + off);
  return arena_.at(pool_offset_ + off);
}

void HostBuddy::free(gpu::ThreadCtx& ctx, void* ptr) {
  if (ptr == nullptr) return;
  if (!arena_.contains(ptr)) return;
  const std::uint64_t abs = arena_.offset_of(ptr);
  if (abs < pool_offset_ || abs >= pool_offset_ + pool_bytes_) return;
  std::uint64_t off = abs - pool_offset_;

  alloc::DeviceLockGuard guard(planner_lock(), ctx);
  const auto it = live_.find(off);
  if (it == live_.end()) {
    ++invalid_frees_;  // double/invalid free: absorbed, never corrupts
    return;
  }
  unsigned order = it->second;
  live_.erase(it);
  free_bytes_ += block_bytes(order);

  unsigned merged = 0;
  while (order < max_order_) {
    const std::uint64_t buddy = off ^ block_bytes(order);
    const auto bit = free_[order].find(buddy);
    if (bit == free_[order].end()) break;
    free_[order].erase(bit);
    off = std::min(off, buddy);
    ++order;
    ++merged;
    ++merges_;
  }
  free_[order].insert(off);
  if (merged > 0) {
    trace::mark(sink_, ctx, trace::EventKind::kHostCoalesce,
                block_bytes(order), merged);
  }
}

core::AuditResult HostBuddy::audit() {
  core::AuditResult r;
  r.supported = true;

  auto fail = [&r](std::string why) {
    ++r.failures;
    r.ok = false;
    if (r.detail.empty()) r.detail = std::move(why);
  };

  // Every block the allocator knows about, free or live, as (offset, bytes):
  // together they must tile the pool exactly.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks;
  std::uint64_t walked_free_bytes = 0;
  for (unsigned order = 0; order < free_.size(); ++order) {
    const std::uint64_t bytes = block_bytes(order);
    for (const std::uint64_t off : free_[order]) {
      ++r.structures_walked;
      if (off % bytes != 0) {
        fail("misaligned free block @ " + std::to_string(off) + " order " +
             std::to_string(order));
      }
      if (off + bytes > pool_bytes_) {
        fail("free block outside the pool @ " + std::to_string(off));
      }
      // The defining buddy invariant: two free buddies at the same order
      // are a missed merge. Report each pair once.
      if (order < max_order_) {
        const std::uint64_t buddy = off ^ bytes;
        if (off < buddy && free_[order].count(buddy) != 0) {
          fail("unmerged free buddies @ " + std::to_string(off) + "/" +
               std::to_string(buddy) + " order " + std::to_string(order));
        }
      }
      blocks.emplace_back(off, bytes);
      walked_free_bytes += bytes;
    }
  }
  for (const auto& [off, order] : live_) {
    ++r.structures_walked;
    const std::uint64_t bytes = block_bytes(order);
    if (order > max_order_ || off % bytes != 0 || off + bytes > pool_bytes_) {
      fail("impossible live block @ " + std::to_string(off) + " order " +
           std::to_string(order));
      continue;
    }
    blocks.emplace_back(off, bytes);
  }

  std::sort(blocks.begin(), blocks.end());
  std::uint64_t expect = 0;
  for (const auto& [off, bytes] : blocks) {
    if (off != expect) {
      fail(off < expect
               ? "overlapping blocks @ " + std::to_string(off)
               : "pool gap before offset " + std::to_string(off));
      break;
    }
    expect = off + bytes;
  }
  if (r.ok && expect != pool_bytes_) {
    fail("blocks tile " + std::to_string(expect) + " of " +
         std::to_string(pool_bytes_) + " pool bytes");
  }
  if (walked_free_bytes != free_bytes_) {
    fail("free-byte accounting drift: counter " + std::to_string(free_bytes_) +
         ", walked " + std::to_string(walked_free_bytes));
  }
  return r;
}

}  // namespace gms::hostalloc
