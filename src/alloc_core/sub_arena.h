#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/utils.h"
#include "gpu/device.h"

namespace gms::alloc_core {

/// Host-side carving of an allocator's slice of the device arena, done once
/// in every manager's constructor. Replaces the per-allocator HeapCarver
/// copies and adds two things the copies never had:
///
///  * a named extent ledger — which structure owns which byte range — so
///    audits and crash reports can say "page bitfield" instead of an offset;
///  * an offset codec (pointer <-> slice-relative offset) so managers stop
///    hand-rolling `ptr - base` arithmetic and range checks.
///
/// Alignment semantics are exactly HeapCarver's: take() aligns to
/// max(align, alignof(T)) before carving, take_rest() aligns then hands out
/// everything left. Refactored managers therefore produce bit-identical
/// layouts (checked by the recorded-trace replay digests).
class SubArena {
 public:
  SubArena(gpu::Device& dev, std::size_t heap_bytes)
      : base_(dev.arena().data()), end_(heap_bytes) {}

  /// Carves a sub-range (one manager nesting a region inside another's).
  SubArena(std::byte* base, std::size_t bytes) : base_(base), end_(bytes) {}

  template <typename T>
  T* take(std::size_t count, std::size_t align = alignof(T),
          std::string_view label = {}) {
    off_ = core::round_up(off_, std::max<std::size_t>(align, alignof(T)));
    note(label, off_, sizeof(T) * count);
    auto* p = reinterpret_cast<T*>(base_ + off_);
    off_ += sizeof(T) * count;
    if (off_ > end_) overflow(label);
    return p;
  }

  /// Remaining bytes after metadata, aligned to `align`.
  std::byte* take_rest(std::size_t& bytes_out, std::size_t align = 16,
                       std::string_view label = {}) {
    off_ = core::round_up(off_, align);
    if (off_ > end_) overflow(label);
    bytes_out = end_ - off_;
    note(label, off_, bytes_out);
    auto* p = base_ + off_;
    off_ = end_;
    return p;
  }

  [[nodiscard]] std::size_t used() const { return off_; }
  [[nodiscard]] std::size_t size() const { return end_; }
  [[nodiscard]] std::byte* base() const { return base_; }

  // ---- offset codec -----------------------------------------------------
  [[nodiscard]] bool contains(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= base_ && b < base_ + end_;
  }
  [[nodiscard]] std::uint64_t offset_of(const void* p) const {
    assert(contains(p));
    return static_cast<std::uint64_t>(static_cast<const std::byte*>(p) -
                                      base_);
  }
  [[nodiscard]] std::byte* at(std::uint64_t off) const {
    assert(off < end_);
    return base_ + off;
  }

  // ---- extent ledger ------------------------------------------------------
  struct Extent {
    std::string_view label;  ///< static strings only (lives past the carve)
    std::size_t offset = 0;
    std::size_t bytes = 0;
  };
  [[nodiscard]] const std::vector<Extent>& extents() const { return extents_; }

  /// One-line layout summary ("meta 4.2KiB | pages 59.8MiB") for audit
  /// details and crash reports.
  [[nodiscard]] std::string describe() const;

 private:
  void note(std::string_view label, std::size_t off, std::size_t bytes) {
    if (!label.empty()) extents_.push_back({label, off, bytes});
  }
  /// A carve ran past the slice: throws std::invalid_argument naming it.
  /// Carving happens only in constructors, so the check is always on.
  [[noreturn]] void overflow(std::string_view label) const;

  std::byte* base_;
  std::size_t end_;
  std::size_t off_ = 0;
  std::vector<Extent> extents_;
};

}  // namespace gms::alloc_core
