#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <string_view>

#include "core/utils.h"

namespace gms::alloc_core {

/// Shared size-class geometry of the surveyed allocators. Every manager's
/// first step is rounding requests to 16-byte granules, and most then bucket
/// the rounded size into a small ascending ladder of classes; this map
/// centralises the rounding and the lookup while letting each manager keep
/// its paper's exact geometry (Halloc's 16-entry mixed ladder, the `16 << c`
/// geometric ladders of Ouroboros / XMalloc / BulkAlloc).
///
/// The lookup is a linear first-fit scan, exactly like the per-allocator
/// loops it replaces — class routing stays bit-identical under trace replay.
class SizeClassMap {
 public:
  static constexpr std::size_t kGranule = 16;
  static constexpr unsigned kNoClass = ~0u;
  static constexpr std::size_t kMaxClasses = 16;

  /// `num_classes` classes of `base << c` bytes each (the Ouroboros /
  /// XMalloc / BulkAlloc family of ladders).
  static SizeClassMap geometric(std::size_t base, unsigned num_classes);

  /// Explicit ascending ladder (Halloc's mixed powers-of-two block table).
  static SizeClassMap ladder(std::initializer_list<std::size_t> sizes);

  /// Colon-separated textual ladder ("16:24:32:...:3072") — the serialized
  /// form used by the runtime-Config layer. Throws core::ConfigError
  /// (kBadLadder) on empty/too-long/non-ascending input.
  static SizeClassMap parse(std::string_view text);

  [[nodiscard]] unsigned num_classes() const { return num_; }
  [[nodiscard]] std::size_t class_bytes(unsigned c) const { return bytes_[c]; }
  /// Largest request any class serves (the manager's direct-service limit).
  [[nodiscard]] std::size_t max_bytes() const { return bytes_[num_ - 1]; }

  /// Smallest class serving `size`, or kNoClass when the request exceeds
  /// the ladder (the caller's relay / multi-page / reject path).
  [[nodiscard]] unsigned class_for(std::size_t size) const {
    for (unsigned c = 0; c < num_; ++c) {
      if (size <= bytes_[c]) return c;
    }
    return kNoClass;
  }

  /// The ubiquitous 16-byte request rounding.
  [[nodiscard]] static constexpr std::size_t round16(std::size_t size) {
    return core::round_up(size, kGranule);
  }

 private:
  std::array<std::size_t, kMaxClasses> bytes_{};
  unsigned num_ = 0;
};

}  // namespace gms::alloc_core
