#pragma once

#include <bit>
#include <chrono>
#include <cstdint>

namespace gms::core {

/// Rounds up to the next power of two (returns v if already one).
constexpr std::uint64_t ceil_pow2(std::uint64_t v) {
  return v <= 1 ? 1 : std::bit_ceil(v);
}

constexpr std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) / align * align;
}

/// SplitMix64: the deterministic per-thread RNG used by every workload so
/// runs are reproducible across allocators (each sees the identical request
/// stream, a precondition for the paper's side-by-side comparisons).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi] inclusive.
  constexpr std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t state_;
};

/// Wall-clock stopwatch used for host-side timing (init times, baseline).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace gms::core
