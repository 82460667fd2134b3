#pragma once

#include <array>

#include "allocators/common.h"

namespace gms::alloc {

/// Stand-in for the proprietary device-side CUDA-Allocator (§2.1).
///
/// NVIDIA publishes no implementation details, so — like the paper, which
/// could "only speculate as to its internal structure" — we build a manager
/// that reproduces its *observed* behaviour on every axis §4 measures:
///  * "some larger, divisible unit that can be split into smaller sizes"
///    with "a clear split in performance right before 2048 B": three unit
///    granularities (128 B / 512 B / 4 KiB) yield the characteristic
///    staircase and the pre-2 KiB split;
///  * reliability valued over performance: each unit region is guarded by a
///    global lock and uses first-fit bitmap search, so it works for any size
///    and never corrupts, but is consistently outperformed for small sizes;
///  * allocation cost grows with live-allocation count and heap size (the
///    bitmap scan lengthens as the region fills, one device load per bitmap
///    word) — the reason the paper's out-of-memory case had to be reined in
///    by the one-hour timeout;
///  * returned addresses spread over the whole region (rotating first-fit
///    hint), matching its worst-case Fig. 11a address range.
class CudaStandin final : public core::MemoryManager {
 public:
  CudaStandin(gpu::Device& dev, std::size_t heap_bytes);
  /// Sub-range constructor for managers that relay large requests here.
  CudaStandin(std::byte* base, std::size_t bytes);

  [[nodiscard]] bool contains(const void* p) const;

  [[nodiscard]] const core::AllocatorTraits& traits() const override;
  [[nodiscard]] void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override;
  void free(gpu::ThreadCtx& ctx, void* ptr) override;

 private:
  /// One unit-granular sub-heap: lock word + rotating hint + bitmap + data.
  /// Small-unit regions keep the header inline (waste bounded by the unit);
  /// the 4 KiB region uses a side-header table so 4/8 KiB requests fit their
  /// units exactly instead of spilling a whole extra unit.
  struct Region {
    std::uint32_t* lock = nullptr;
    std::uint64_t* hint = nullptr;
    std::uint64_t* bitmap = nullptr;  // 1 bit per unit, set = in use
    std::uint64_t* side_headers = nullptr;  // per-unit {magic, count}, or null
    std::byte* data = nullptr;
    std::size_t unit = 0;
    std::size_t num_units = 0;

    /// Finds and claims `k` contiguous units; returns unit index or ~0.
    /// The bitmap scan and bit flips go through the instrumented device
    /// accessors — the walk is device-memory traffic, and its length in
    /// word loads is the observable that makes this manager's fill-dependent
    /// slowdown visible to counter-based samplers the same way the other
    /// managers' search loops are. The host examines each loaded word with
    /// bit scans, so it pays per word, not per unit.
    std::size_t claim(gpu::ThreadCtx& ctx, std::size_t k);
    void release(gpu::ThreadCtx& ctx, std::size_t first_unit, std::size_t k);
    /// Flips `k` bits starting at `first_unit` (set or clear), one
    /// instrumented store per touched bitmap word.
    void flip(gpu::ThreadCtx& ctx, std::size_t first_unit, std::size_t k,
              bool set);
  };

  struct Header {
    std::uint32_t magic;
    std::uint32_t region;
    std::uint64_t first_unit;
    std::uint64_t unit_count;
    std::uint64_t pad;
  };
  static_assert(sizeof(Header) == 32);
  static constexpr std::uint32_t kMagic = 0xCDAA110Cu;

  [[nodiscard]] unsigned region_for(std::size_t payload) const;

  std::array<Region, 3> regions_{};
};

}  // namespace gms::alloc
