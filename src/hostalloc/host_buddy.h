#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "hostalloc/host_manager.h"

namespace gms::hostalloc {

/// Host-based binary buddy allocator — the second column of the host-based
/// family (DESIGN.md §14). The pool is the largest power-of-two slice of
/// the SubArena remainder; every split and merge is pure host bookkeeping
/// (per-order free sets, offsets relative to the pool base), guarded by the
/// planner lock. Classic buddy invariants make the audit sharp: a free
/// block whose buddy is also free at the same order is a missed merge and
/// fails the walk.
class HostBuddy final : public HostManagerBase {
 public:
  struct Config {
    std::uint64_t min_block = 256;  ///< smallest block (bytes, pow2)
  };

  /// Schema binding Config to the runtime "{k=v}" layer (host_buddy.cpp).
  static const core::ConfigSchema<Config>& config_schema();

  HostBuddy(gpu::Device& dev, std::size_t heap_bytes, Config cfg);
  HostBuddy(gpu::Device& dev, std::size_t heap_bytes)
      : HostBuddy(dev, heap_bytes, Config{}) {}

  [[nodiscard]] const Config& config() const { return cfg_; }

  [[nodiscard]] const core::AllocatorTraits& traits() const override;
  [[nodiscard]] void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override;
  void free(gpu::ThreadCtx& ctx, void* ptr) override;
  [[nodiscard]] core::AuditResult audit() override;

  // ---- host-side introspection (quiescent) -------------------------------
  [[nodiscard]] std::uint64_t pool_bytes() const { return pool_bytes_; }
  [[nodiscard]] std::uint64_t free_bytes() const { return free_bytes_; }
  [[nodiscard]] std::size_t live_count() const { return live_.size(); }
  [[nodiscard]] std::uint64_t split_count() const { return splits_; }
  [[nodiscard]] std::uint64_t merge_count() const { return merges_; }
  [[nodiscard]] unsigned order_count() const {
    return static_cast<unsigned>(free_.size());
  }
  /// Free blocks currently held at `order` (block size min_block << order).
  [[nodiscard]] std::size_t free_blocks_at(unsigned order) const {
    return order < free_.size() ? free_[order].size() : 0;
  }

 private:
  [[nodiscard]] std::uint64_t block_bytes(unsigned order) const {
    return cfg_.min_block << order;
  }
  [[nodiscard]] unsigned order_for(std::uint64_t bytes) const;

  Config cfg_;
  std::uint64_t pool_offset_ = 0;  ///< arena offset of the pow2 pool
  std::uint64_t pool_bytes_ = 0;   ///< power of two
  unsigned max_order_ = 0;         ///< pool_bytes_ == min_block << max_order_

  // Host-side planning state, mutated only under the planner lock. Offsets
  // are pool-relative so the buddy address is literally `off ^ block_bytes`.
  std::vector<std::set<std::uint64_t>> free_;  ///< per order, sorted offsets
  std::map<std::uint64_t, unsigned> live_;     ///< pool offset -> order
  std::uint64_t free_bytes_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t merges_ = 0;
  std::uint64_t invalid_frees_ = 0;
};

}  // namespace gms::hostalloc
