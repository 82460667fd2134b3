#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Request sizes for `rounds` rounds of `lanes` lanes over the paper's
/// 4 B .. 8 KiB ladder: each step equally often per round, in an order
/// shuffled from `seed`.
std::vector<std::vector<std::uint32_t>> churn_sizes(std::uint64_t seed,
                                                    std::uint64_t lanes,
                                                    unsigned rounds);

/// One churn round: every lane mallocs its size (warp_malloc on warp-level
/// managers), the host checks the pointers, then every lane frees (or calls
/// warp_free_all; the Atomic baseline cannot free and skips the kernel).
struct ChurnRound {
  gpu::LaunchStats malloc, free;
  bool has_free = false;
  std::uint64_t ops = 0;     ///< malloc + free calls completed
  std::uint64_t failed = 0;  ///< nullptr returns
  std::uint64_t span = 0;    ///< address range the live blocks cover
  std::uint64_t dense = 0;   ///< sum of their 16-byte-rounded sizes

  [[nodiscard]] double ms() const {
    return malloc.elapsed_ms + free.elapsed_ms;
  }
};

/// Runs one round of `sizes.size()` lanes. The host check between the
/// kernels (outside the timed kernels) fails the run unless every non-null
/// block lies inside the device arena and no two blocks overlap.
ChurnRound churn_round(Run& run, gpu::Device& dev, core::MemoryManager& mgr,
                       const std::vector<std::uint32_t>& sizes,
                       std::vector<void*>& ptrs, const std::string& cell);

}  // namespace perfbench
