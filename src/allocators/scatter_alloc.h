#pragma once

#include "allocators/common.h"

namespace gms::alloc {

/// ScatterAlloc (Steinberger et al., InPar 2012) — §2.3 / Fig. 2.
///
/// Memory is split into fixed 4 KiB pages grouped into Super Blocks. A hash
/// of (requested size, multiprocessor id) scatters allocation requests over a
/// super block's pages; linear probing resolves collisions, regions with fill
/// counters let the probe skip exhausted areas quickly. Each page serves one
/// chunk size (fixed at first allocation from the page); free chunks are
/// tracked in a 32-bit page usage bitfield, with a second on-page hierarchy
/// level for up to 1024 chunks per page. Requests that do not fit a page are
/// served as multiple consecutive pages from specially reserved super blocks
/// — the path responsible for the paper's steep performance drop past 2 KiB.
class ScatterAlloc final : public core::MemoryManager {
 public:
  struct Config {
    std::size_t page_size = 4096;
    std::size_t pages_per_superblock = 1024;  // 4 MiB data per super block
    std::size_t pages_per_region = 64;
    /// Fraction (as 1/N) of super blocks reserved for multi-page requests.
    std::size_t reserved_fraction = 4;
    /// Linear-probe budget within one super block before advancing.
    std::size_t probe_limit = 256;
    /// Probe step within a super block. Odd (schema-enforced) so the walk
    /// visits every page of a pow2 super block; 1 = the paper's linear probe.
    std::size_t hash_stride = 1;
  };

  /// Schema binding Config to the runtime "{k=v}" layer (scatter_alloc.cpp).
  static const core::ConfigSchema<Config>& config_schema();

  /// Throws ConfigError for a `cfg` the schema refuses, however it was built.
  ScatterAlloc(gpu::Device& dev, std::size_t heap_bytes, Config cfg);
  ScatterAlloc(gpu::Device& dev, std::size_t heap_bytes)
      : ScatterAlloc(dev, heap_bytes, Config{}) {}

  [[nodiscard]] const Config& config() const { return cfg_; }

  [[nodiscard]] const core::AllocatorTraits& traits() const override;
  [[nodiscard]] void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override;
  void free(gpu::ThreadCtx& ctx, void* ptr) override;

  /// Walks every page's packed state word and the multi-page bitmap,
  /// checking the invariants that survive a cancelled kernel: chunk sizes
  /// are 16 B-rounded and page-sized, fill counts never exceed capacity, no
  /// page is stuck mid-initialisation, and recorded multi-page runs have
  /// their claim bits set. Lost chunks (count without a visible owner) are
  /// leakage, not corruption, and pass.
  [[nodiscard]] core::AuditResult audit() override;

  /// Exposed for white-box tests: page-state accessors.
  [[nodiscard]] std::size_t num_pages() const { return num_pages_; }
  [[nodiscard]] std::uint32_t page_chunk_size(std::size_t page) const;
  [[nodiscard]] std::uint32_t page_count(std::size_t page) const;

 private:
  // Page state packs {chunk_size | kInitFlag : high 32, count : low 32} into
  // one CAS-able word. count is bumped first to reserve, then a usage bit is
  // claimed — the reservation bounds bit-search retries.
  static constexpr std::uint64_t kInitFlag = 0x80000000ull << 32;
  static std::uint64_t make_state(std::uint32_t chunk, std::uint32_t count) {
    return (static_cast<std::uint64_t>(chunk) << 32) | count;
  }
  static std::uint32_t state_chunk(std::uint64_t s) {
    return static_cast<std::uint32_t>(s >> 32) & 0x7FFFFFFFu;
  }
  static std::uint32_t state_count(std::uint64_t s) {
    return static_cast<std::uint32_t>(s);
  }

  /// Chunks below hier_below_ take the on-page hierarchy: a flat page's
  /// usage word has 32 bits, so it may hold at most 32 chunks.
  [[nodiscard]] bool hierarchical(std::uint32_t chunk) const {
    return chunk < hier_below_;
  }
  [[nodiscard]] std::uint32_t page_capacity(std::uint32_t chunk) const;

  /// `cap` is page_capacity(chunk), computed once per call by the caller.
  void* try_alloc_on_page(gpu::ThreadCtx& ctx, std::size_t page,
                          std::uint32_t chunk, std::uint32_t cap);
  void* claim_fresh_page(gpu::ThreadCtx& ctx, std::size_t page,
                         std::uint32_t chunk, std::uint32_t cap);
  [[nodiscard]] std::uint32_t* usage_words(std::size_t page,
                                           std::uint32_t chunk);
  [[nodiscard]] std::byte* chunk_base(std::size_t page, std::uint32_t chunk);

  void* malloc_chunk(gpu::ThreadCtx& ctx, std::uint32_t chunk);
  void* malloc_multi_page(gpu::ThreadCtx& ctx, std::size_t size);
  void free_multi_page(gpu::ThreadCtx& ctx, void* ptr, std::size_t page);

  Config cfg_;
  std::size_t num_superblocks_ = 0;
  std::size_t chunk_superblocks_ = 0;  // the rest is reserved for multi-page
  std::size_t num_pages_ = 0;
  std::size_t chunk_pages_ = 0;  // pages of the chunk super blocks
  // The geometry is all powers of two, so the per-call paths shift and mask
  // instead of dividing (fixed in the constructor).
  unsigned page_shift_ = 0;       // log2(page_size)
  std::size_t page_mask_ = 0;     // page_size - 1
  unsigned sb_shift_ = 0;         // log2(pages_per_superblock)
  std::size_t sb_mask_ = 0;       // pages_per_superblock - 1
  unsigned region_shift_ = 0;     // log2(pages_per_region)
  std::size_t probes_ = 0;        // min(probe_limit, pages_per_superblock)
  // max(128, page_size / 32): below 128 B always (the 4 KiB page's bound),
  // and on larger pages every chunk of which more than 32 could fit.
  std::uint32_t hier_below_ = 128;

  std::uint64_t* page_state_ = nullptr;    // one word per page
  std::uint32_t* page_bitfield_ = nullptr; // level-1 usage bits per page
  std::uint32_t* region_full_ = nullptr;   // full pages per region
  std::uint64_t* multi_bitmap_ = nullptr;  // page-claim bits, reserved SBs
  std::uint32_t* multi_count_ = nullptr;   // pages per multi-page allocation
  std::uint32_t* active_sb_ = nullptr;
  std::byte* pages_ = nullptr;

  static constexpr std::uint32_t kMultiMagic = 0x5CA77E8Du;
};

}  // namespace gms::alloc
