#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "hostalloc/extent_map.h"
#include "hostalloc/host_manager.h"

namespace gms::hostalloc {

/// Host-based extent best-fit allocator — the first column of the
/// host-based family (DESIGN.md §14). The host owns a sorted free-extent
/// map over the whole pool and plans every placement with a binary-search
/// best-fit carve (the SNIPPETS.md `GpuMemoryManager` exemplar); frees
/// coalesce with both neighbours. The device never walks host structures:
/// each live allocation is published into a device-visible *handoff table*
/// in the arena ({offset, bytes} slots written with instrumented atomic
/// stores), so kernels can resolve and bounds-check handles without a host
/// round-trip mid-kernel.
class ExtentBestFit final : public HostManagerBase {
 public:
  struct Config {
    /// Placement granularity (bytes, pow2). The default models the host
    /// allocation API being mirrored: cudaMalloc guarantees 256-byte
    /// alignment, and the coarser carve also bounds peak live-allocation
    /// density — with zero in-heap headers this family otherwise packs
    /// denser than any device-side manager and overflows harness tables
    /// sized for header-bearing allocators.
    std::uint64_t granule = 256;
    /// Handoff-table capacity; 0 = auto (pool/1KiB, clamped to [4096, 1M]).
    std::size_t handoff_slots = 0;
  };

  /// Device-visible handoff record: one live allocation. `offset` is the
  /// arena offset (kEmptySlot when the slot is vacant), `bytes` the carved
  /// length. Written host-side under the planner lock via ctx atomics.
  struct HandoffSlot {
    std::uint64_t offset;
    std::uint64_t bytes;
  };
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Schema binding Config to the runtime "{k=v}" layer (extent_best_fit.cpp).
  static const core::ConfigSchema<Config>& config_schema();

  ExtentBestFit(gpu::Device& dev, std::size_t heap_bytes, Config cfg);
  ExtentBestFit(gpu::Device& dev, std::size_t heap_bytes)
      : ExtentBestFit(dev, heap_bytes, Config{}) {}

  [[nodiscard]] const Config& config() const { return cfg_; }

  [[nodiscard]] const core::AllocatorTraits& traits() const override;
  [[nodiscard]] void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override;
  void free(gpu::ThreadCtx& ctx, void* ptr) override;
  [[nodiscard]] core::AuditResult audit() override;

  // ---- device-side handle resolution ------------------------------------
  /// Reads the handoff table from "device" code: returns the arena offset
  /// published for `slot` (kEmptySlot if vacant/out of range) and its length
  /// in `bytes_out`. One atomic load per field, no host structures touched.
  [[nodiscard]] std::uint64_t resolve(gpu::ThreadCtx& ctx, std::uint32_t slot,
                                      std::uint64_t& bytes_out) const;

  /// Handoff slot backing a live pointer (kNoSlot if the table overflowed).
  [[nodiscard]] std::uint32_t slot_of(const void* ptr) const;

  // ---- host-side introspection (quiescent) -------------------------------
  [[nodiscard]] std::uint64_t free_bytes() const { return extents_.free_bytes(); }
  [[nodiscard]] std::uint64_t largest_free() const {
    return extents_.largest_free();
  }
  [[nodiscard]] std::size_t live_count() const { return live_.size(); }
  [[nodiscard]] std::uint64_t carve_count() const { return carves_; }

 private:
  struct LiveExtent {
    std::uint64_t bytes = 0;
    std::uint32_t slot = kNoSlot;
  };

  Config cfg_;
  HandoffSlot* slots_ = nullptr;  ///< device-visible, in the arena
  std::size_t slot_count_ = 0;
  std::uint64_t pool_offset_ = 0;
  std::uint64_t pool_bytes_ = 0;

  // Host-side planning state, mutated only under the planner lock.
  ExtentMap extents_;
  std::map<std::uint64_t, LiveExtent> live_;  ///< arena offset -> extent
  std::vector<std::uint32_t> free_slots_;     ///< vacant handoff indices
  std::uint64_t carves_ = 0;
  std::uint64_t invalid_frees_ = 0;
};

}  // namespace gms::hostalloc
