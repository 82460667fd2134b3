#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/memory_manager.h"
#include "gpu/device.h"

namespace gms::work {

/// §4.4.1 work generation: every thread produces a variable amount of work
/// (4 B - 64 B or 4 B - 4096 B) and writes work items into its buffer. The
/// dynamic-memory version allocates per thread; the canonical Baseline runs
/// the two-pass prefix-sum strategy (size kernel, exclusive scan standing in
/// for Thrust, one bulk allocation, write kernel).
struct WorkGenResult {
  double total_ms = 0;     ///< end-to-end time for the approach
  std::uint64_t failed = 0;
  std::uint64_t checksum = 0;  ///< sum over all written work items
};

WorkGenResult run_workgen(gpu::Device& dev, core::MemoryManager& mgr,
                          std::size_t threads, std::size_t size_min,
                          std::size_t size_max, std::uint64_t seed,
                          bool free_after = true);

/// The prefix-sum Baseline; writes into `scratch` (caller supplies a buffer
/// of at least threads * size_max bytes, standing in for one cudaMalloc).
WorkGenResult run_workgen_baseline(gpu::Device& dev,
                                   std::vector<std::byte>& scratch,
                                   std::size_t threads, std::size_t size_min,
                                   std::size_t size_max, std::uint64_t seed);

/// §4.4.2 memory-access performance: 2^17 allocations of 16 B - 128 B, each
/// thread writes (and reads back) its block. Reports the timed write kernel
/// plus a coalescing proxy: 128 B-transaction count per warp-synchronous
/// write step, compared against a perfectly coalesced baseline buffer.
struct AccessPerfResult {
  double write_ms = 0;
  double baseline_write_ms = 0;
  std::uint64_t transactions = 0;
  std::uint64_t baseline_transactions = 0;
  [[nodiscard]] double transaction_ratio() const {
    return baseline_transactions == 0
               ? 0.0
               : static_cast<double>(transactions) /
                     static_cast<double>(baseline_transactions);
  }
};

AccessPerfResult run_access_perf(gpu::Device& dev, core::MemoryManager& mgr,
                                 std::size_t threads, std::size_t size_min,
                                 std::size_t size_max, std::uint64_t seed);

/// The coalescing proxy behind AccessPerfResult: lane `rank` writes the
/// words at `bases[rank] + w * stride` for w < `words[rank]` (the spans are
/// equally long), warps are 32 consecutive ranks, and each warp-synchronous
/// step w costs one 128 B transaction per distinct line its lanes touch.
std::uint64_t count_transactions(std::span<const std::uint64_t> bases,
                                 std::span<const std::uint32_t> words,
                                 std::uint64_t stride);

}  // namespace gms::work
