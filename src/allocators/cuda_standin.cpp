#include "allocators/cuda_standin.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "alloc_core/sub_arena.h"

namespace gms::alloc {

namespace {
constexpr core::AllocatorTraits kTraits{
    .name = "CUDA",
    .family = "CUDA-Allocator",
    .paper_ref = "[13], NVIDIA Toolkit 2010",
    .year = 2010,
    .general_purpose = true,
    .supports_free = true,
    .individual_free = true,
    .resizable = false,  // "increasing memory requires destroying the context"
    .its_safe = true,
    .stable = true,
    .malloc_state_bytes = 56,
    .free_state_bytes = 40,
};

// Unit sizes and heap shares of the three sub-heaps. The 512 B / 4 KiB
// boundary at 2048 B payloads reproduces the paper's pre-2048 B split.
constexpr std::size_t kUnits[3] = {128, 512, 4096};
constexpr std::size_t kShares[3] = {30, 15, 55};  // percent of the heap
}  // namespace

CudaStandin::CudaStandin(gpu::Device& dev, std::size_t heap_bytes)
    : CudaStandin(dev.arena().data(), heap_bytes) {}

bool CudaStandin::contains(const void* p) const {
  for (const Region& reg : regions_) {
    auto* b = static_cast<const std::byte*>(p);
    if (b >= reg.data && b < reg.data + reg.num_units * reg.unit) return true;
  }
  return false;
}

CudaStandin::CudaStandin(std::byte* base, std::size_t heap_bytes) {
  core::Stopwatch timer;
  alloc_core::SubArena carver(base, heap_bytes);
  static constexpr std::string_view kRegionLabels[3] = {"small-region",
                                                        "medium-region",
                                                        "large-region"};
  for (unsigned r = 0; r < 3; ++r) {
    const std::size_t bytes = heap_bytes * kShares[r] / 100;
    Region& reg = regions_[r];
    reg.unit = kUnits[r];
    reg.num_units = bytes / reg.unit;
    reg.lock = carver.take<std::uint32_t>(1);
    reg.hint = carver.take<std::uint64_t>(1);
    reg.bitmap = carver.take<std::uint64_t>((reg.num_units + 63) / 64);
    if (r == 2) {
      // The last region pays for all the metadata: it gets exactly what is
      // left, never more units than its share sized the tables for.
      reg.side_headers = carver.take<std::uint64_t>(reg.num_units);
      std::size_t rest = 0;
      reg.data = carver.take_rest(rest, 128, kRegionLabels[r]);
      reg.num_units = std::min(reg.num_units, rest / reg.unit);
    } else {
      reg.data = carver.take<std::byte>(reg.num_units * reg.unit, 128,
                                        kRegionLabels[r]);
    }
  }
  init_ms_ = timer.elapsed_ms();
}

const core::AllocatorTraits& CudaStandin::traits() const { return kTraits; }

unsigned CudaStandin::region_for(std::size_t payload) const {
  const std::size_t total = payload + sizeof(Header);
  if (total <= 512) return 0;
  if (total < 2048) return 1;
  return 2;
}

std::size_t CudaStandin::Region::claim(gpu::ThreadCtx& ctx, std::size_t k) {
  DeviceLockGuard guard(DeviceSpinLock{lock}, ctx);
  const std::size_t start =
      static_cast<std::size_t>(ctx.atomic_load(hint)) % num_units;
  // First-fit from the rotating hint over num_units + k units, wrapping at
  // the region end; the extra k finds a run that straddles the hint. A run
  // restarts at the hint and at unit 0 (runs must not wrap the region end).
  // One device load per bitmap word probed: the scan length IS this
  // manager's fill-dependent cost, and routing it through the instrumented
  // accessors (like every other manager's search loop) makes it visible to
  // counters. The host examines each loaded word with bit scans.
  std::size_t left = num_units + k;
  std::size_t word_idx = ~std::size_t{0};
  std::uint64_t word = 0;
  for (std::size_t lo = start; left > 0; lo = 0) {
    const std::size_t hi = std::min(num_units, lo + left);
    left -= hi - lo;
    std::size_t run = 0;
    std::size_t run_start = lo;
    // Each step takes the free units from i on, then the used ones after
    // them, both cut at the end of i's bitmap word (set bits are used).
    for (std::size_t i = lo; i < hi;) {
      if (i / 64 != word_idx) {
        word_idx = i / 64;
        word = ctx.atomic_load(&bitmap[word_idx]);
      }
      const std::size_t word_end = std::min(hi, (word_idx + 1) * 64);
      const std::size_t free_units = std::min<std::size_t>(
          std::countr_zero(word >> (i % 64)), word_end - i);
      if (run + free_units >= k) {
        flip(ctx, run_start, k, /*set=*/true);
        ctx.atomic_store(hint, static_cast<std::uint64_t>(run_start + k));
        return run_start;
      }
      run += free_units;
      i += free_units;
      if (i == word_end) continue;
      i += std::min<std::size_t>(std::countr_one(word >> (i % 64)),
                                 word_end - i);
      run = 0;
      run_start = i;
    }
  }
  return ~std::size_t{0};
}

void CudaStandin::Region::flip(gpu::ThreadCtx& ctx, std::size_t first_unit,
                               std::size_t k, bool set) {
  const std::size_t end = first_unit + k;
  for (std::size_t u = first_unit; u < end;) {
    const std::size_t w = u / 64;
    const std::size_t n = std::min<std::size_t>(64 - u % 64, end - u);
    const std::uint64_t mask = ~std::uint64_t{0} >> (64 - n) << (u % 64);
    // Under the region lock, so plain read + instrumented store suffices.
    ctx.atomic_store(&bitmap[w], set ? bitmap[w] | mask : bitmap[w] & ~mask);
    u += n;
  }
}

void CudaStandin::Region::release(gpu::ThreadCtx& ctx, std::size_t first_unit,
                                  std::size_t k) {
  flip(ctx, first_unit, k, /*set=*/false);
}

void* CudaStandin::malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  if (size == 0) size = 1;
  const unsigned r = region_for(size);
  Region& reg = regions_[r];
  const std::size_t overhead = reg.side_headers ? 0 : sizeof(Header);
  const std::size_t k = (size + overhead + reg.unit - 1) / reg.unit;
  if (k > reg.num_units) return nullptr;
  const std::size_t first = reg.claim(ctx, k);
  if (first == ~std::size_t{0}) return nullptr;
  if (reg.side_headers != nullptr) {
    ctx.atomic_store(&reg.side_headers[first],
                     (std::uint64_t{kMagic} << 32) | k);
    return reg.data + first * reg.unit;
  }
  auto* header = reinterpret_cast<Header*>(reg.data + first * reg.unit);
  header->magic = kMagic;
  header->region = r;
  header->first_unit = first;
  header->unit_count = k;
  return header + 1;
}

void CudaStandin::free(gpu::ThreadCtx& ctx, void* ptr) {
  if (ptr == nullptr) return;
  // Large-region pointers are unit-aligned inside region 2's data range.
  Region& large = regions_[2];
  auto* p = static_cast<std::byte*>(ptr);
  if (p >= large.data && p < large.data + large.num_units * large.unit) {
    const std::size_t first =
        static_cast<std::size_t>(p - large.data) / large.unit;
    const std::uint64_t side = ctx.atomic_load(&large.side_headers[first]);
    assert((side >> 32) == kMagic && "free of a foreign/corrupt pointer");
    ctx.atomic_store(&large.side_headers[first], std::uint64_t{0});
    DeviceLockGuard guard(DeviceSpinLock{large.lock}, ctx);
    large.release(ctx, first, static_cast<std::size_t>(side & 0xFFFFFFFFu));
    return;
  }
  auto* header = static_cast<Header*>(ptr) - 1;
  assert(header->magic == kMagic && "free of a foreign/corrupt pointer");
  Region& reg = regions_[header->region];
  header->magic = 0;
  DeviceLockGuard guard(DeviceSpinLock{reg.lock}, ctx);
  reg.release(ctx, header->first_unit, header->unit_count);
}

}  // namespace gms::alloc
