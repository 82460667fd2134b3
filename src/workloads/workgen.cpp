#include "workloads/workgen.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

#include "core/utils.h"

namespace gms::work {

namespace {
std::size_t pick_size(std::uint64_t seed, std::uint32_t rank,
                      std::size_t size_min, std::size_t size_max) {
  core::SplitMix64 rng(seed ^ (std::uint64_t{rank} * 0xD1B54A32D192ED03ull));
  return static_cast<std::size_t>(rng.range(size_min, size_max));
}
}  // namespace

WorkGenResult run_workgen(gpu::Device& dev, core::MemoryManager& mgr,
                          std::size_t threads, std::size_t size_min,
                          std::size_t size_max, std::uint64_t seed,
                          bool free_after) {
  WorkGenResult result;
  const bool warp_only = mgr.traits().warp_level_only;
  std::vector<void*> ptrs(threads, nullptr);
  std::uint64_t checksum = 0;

  // One kernel: allocate the thread's work buffer and emit the work items.
  const auto stats = dev.launch_n(threads, [&](gpu::ThreadCtx& t) {
    const std::size_t bytes =
        pick_size(seed, t.thread_rank(), size_min, size_max);
    const std::size_t words = bytes / 4;
    auto* p = static_cast<std::uint32_t*>(
        warp_only ? mgr.warp_malloc(t, bytes) : mgr.malloc(t, bytes));
    ptrs[t.thread_rank()] = p;
    if (p == nullptr) return;
    std::uint64_t local = 0;
    for (std::size_t w = 0; w < words; ++w) {
      p[w] = t.thread_rank() + static_cast<std::uint32_t>(w);
      local += p[w];
    }
    t.aggregated_atomic_add(&checksum, local);
  });
  result.total_ms = stats.elapsed_ms;
  result.checksum = checksum;
  for (void* p : ptrs) {
    if (p == nullptr) ++result.failed;
  }

  if (free_after) {
    if (mgr.traits().supports_free && mgr.traits().individual_free) {
      dev.launch_n(threads, [&](gpu::ThreadCtx& t) {
        mgr.free(t, ptrs[t.thread_rank()]);
      });
    } else if (warp_only) {
      dev.launch_n(threads, [&](gpu::ThreadCtx& t) { mgr.warp_free_all(t); });
    }
  }
  return result;
}

WorkGenResult run_workgen_baseline(gpu::Device& dev,
                                   std::vector<std::byte>& scratch,
                                   std::size_t threads, std::size_t size_min,
                                   std::size_t size_max, std::uint64_t seed) {
  WorkGenResult result;
  core::Stopwatch total;

  // Pass 1: every thread reports its work size.
  std::vector<std::uint32_t> sizes(threads, 0);
  dev.launch_n(threads, [&](gpu::ThreadCtx& t) {
    sizes[t.thread_rank()] = static_cast<std::uint32_t>(
        pick_size(seed, t.thread_rank(), size_min, size_max));
  });

  // Host: exclusive prefix sum (the Thrust stand-in) + one bulk allocation.
  std::vector<std::uint64_t> offsets(threads + 1, 0);
  std::inclusive_scan(sizes.begin(), sizes.end(), offsets.begin() + 1,
                      std::plus<>{}, std::uint64_t{0});
  const std::size_t total_bytes = offsets[threads];
  if (scratch.size() < total_bytes) scratch.resize(total_bytes);

  // Pass 2: write work items at the scanned offsets.
  std::uint64_t checksum = 0;
  dev.launch_n(threads, [&](gpu::ThreadCtx& t) {
    const std::size_t bytes = sizes[t.thread_rank()];
    const std::size_t words = bytes / 4;
    // The scanned offsets are packed byte sums, so a word may be misaligned:
    // store and read it bytewise.
    std::byte* p = scratch.data() + offsets[t.thread_rank()];
    std::uint64_t local = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint32_t value =
          t.thread_rank() + static_cast<std::uint32_t>(w);
      std::memcpy(p + w * sizeof value, &value, sizeof value);
      std::uint32_t stored = 0;
      std::memcpy(&stored, p + w * sizeof stored, sizeof stored);
      local += stored;
    }
    t.aggregated_atomic_add(&checksum, local);
  });
  result.total_ms = total.elapsed_ms();
  result.checksum = checksum;
  return result;
}

std::uint64_t count_transactions(std::span<const std::uint64_t> bases,
                                 std::span<const std::uint32_t> words,
                                 std::uint64_t stride) {
  struct Run {
    std::uint64_t base;
    std::uint32_t words;
  };
  std::uint64_t transactions = 0;
  for (std::size_t first = 0; first < bases.size(); first += gpu::kWarpSize) {
    const std::size_t end =
        std::min(bases.size(), first + std::size_t{gpu::kWarpSize});
    // The warp's lanes in base order. Every lane steps by the same stride,
    // so its lines stay in that order at every step, and counting line
    // changes counts distinct lines. A lane leaves once its block ends.
    std::array<Run, gpu::kWarpSize> live;
    unsigned n = 0;
    for (std::size_t rank = first; rank < end; ++rank) {
      if (words[rank] != 0) live[n++] = {bases[rank], words[rank]};
    }
    std::sort(live.begin(), live.begin() + n,
              [](const Run& a, const Run& b) { return a.base < b.base; });
    for (std::uint64_t w = 0; n != 0; ++w) {
      std::uint64_t prev_line = 0;
      unsigned kept = 0;
      for (unsigned k = 0; k < n; ++k) {
        const std::uint64_t line =
            (live[k].base + w * stride) / gpu::kTransactionBytes;
        if (k == 0 || line != prev_line) ++transactions;
        prev_line = line;
        if (live[k].words > w + 1) live[kept++] = live[k];
      }
      n = kept;
    }
  }
  return transactions;
}

AccessPerfResult run_access_perf(gpu::Device& dev, core::MemoryManager& mgr,
                                 std::size_t threads, std::size_t size_min,
                                 std::size_t size_max, std::uint64_t seed) {
  AccessPerfResult result;
  const bool warp_only = mgr.traits().warp_level_only;
  std::vector<void*> ptrs(threads, nullptr);
  std::vector<std::uint32_t> sizes(threads, 0);

  dev.launch_n(threads, [&](gpu::ThreadCtx& t) {
    const std::size_t bytes =
        pick_size(seed, t.thread_rank(), size_min, size_max);
    sizes[t.thread_rank()] = static_cast<std::uint32_t>(bytes);
    ptrs[t.thread_rank()] =
        warp_only ? mgr.warp_malloc(t, bytes) : mgr.malloc(t, bytes);
  });

  // Timed write pass (every thread writes its whole block).
  const auto wstats = dev.launch_n(threads, [&](gpu::ThreadCtx& t) {
    auto* p = static_cast<std::uint32_t*>(ptrs[t.thread_rank()]);
    if (p == nullptr) return;
    const std::size_t words = sizes[t.thread_rank()] / 4;
    for (std::size_t w = 0; w < words; ++w) p[w] = t.thread_rank();
  });
  result.write_ms = wstats.elapsed_ms;

  // Fully coalesced baseline: same volume into a dense SoA-style buffer,
  // 128 B-aligned so the transaction count is the true coalesced optimum.
  const std::size_t max_words = core::round_up(size_max, 4) / 4;
  std::vector<std::uint32_t> dense_storage(threads * max_words + 32);
  auto* dense = dense_storage.data();
  while (reinterpret_cast<std::uintptr_t>(dense) % gpu::kTransactionBytes !=
         0) {
    ++dense;
  }
  const auto bstats = dev.launch_n(threads, [&](gpu::ThreadCtx& t) {
    const std::size_t words = sizes[t.thread_rank()] / 4;
    for (std::size_t w = 0; w < words; ++w) {
      dense[w * threads + t.thread_rank()] = t.thread_rank();
    }
  });
  result.baseline_write_ms = bstats.elapsed_ms;

  // Coalescing proxy: count 128 B transactions per warp-synchronous step.
  // A failed allocation (nullptr) counts as a block at address 0.
  std::vector<std::uint64_t> bases(threads);
  std::vector<std::uint32_t> words(threads);
  for (std::size_t rank = 0; rank < threads; ++rank) {
    bases[rank] = reinterpret_cast<std::uint64_t>(ptrs[rank]);
    words[rank] = sizes[rank] / 4;
  }
  result.transactions = count_transactions(bases, words, 4);
  for (std::size_t rank = 0; rank < threads; ++rank) {
    bases[rank] = reinterpret_cast<std::uint64_t>(&dense[rank]);
  }
  result.baseline_transactions =
      count_transactions(bases, words, std::uint64_t{4} * threads);

  if (mgr.traits().supports_free && mgr.traits().individual_free) {
    dev.launch_n(threads, [&](gpu::ThreadCtx& t) {
      mgr.free(t, ptrs[t.thread_rank()]);
    });
  }
  return result;
}

}  // namespace gms::work
