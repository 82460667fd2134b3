#pragma once

#include <memory>
#include <string>

#include "alloc_core/large_relay.h"
#include "alloc_core/size_class_map.h"
#include "allocators/common.h"
#include "allocators/lockfree_queue.h"

namespace gms::alloc {

/// Halloc (Adinetz & Pleiter, GTC 2014) — §2.7 / Fig. 5.
///
/// Initialisation carves the memory into slabs that are assigned to a block
/// size at runtime. The core is a bitmap heap, one bit per block, traversed
/// with a hash function that visits all blocks — "fast and scalable as long
/// as < 85 % of the blocks are allocated". All allocation-state counters are
/// updated with warp-aggregated atomics (a leader increments for the whole
/// group: up to 32x fewer atomics). Slabs are classified free / sparse
/// (< 2 %) / busy (> 60 %); busy slabs are avoided during head search, and
/// head replacement starts early (fill level > 83.5 %). Blocks carry no
/// headers — a pointer's slab and block index are pure address arithmetic.
/// Allocations above 3 KiB are relayed to the CUDA allocator, which receives
/// its own section of the memory.
class Halloc final : public core::MemoryManager {
 public:
  struct Config {
    std::size_t slab_bytes = 1u << 21;  // 2 MiB (paper: 2-8 MiB)
    std::size_t relay_percent = 33;     // heap share of the CUDA section
    double head_replace_fill = 0.835;
    double sparse_fill = 0.02;
    double busy_fill = 0.60;
    /// Block size ladder (colon-separated, ascending). The default is the
    /// paper's 16 B ... 3 KiB mixed table; the top rung becomes the direct
    /// service limit (larger requests relay to the CUDA section).
    std::string ladder =
        "16:24:32:48:64:96:128:192:256:384:512:768:1024:1536:2048:3072";
  };

  /// Schema binding Config to the runtime "{k=v}" layer (halloc.cpp).
  static const core::ConfigSchema<Config>& config_schema();

  Halloc(gpu::Device& dev, std::size_t heap_bytes, Config cfg);
  Halloc(gpu::Device& dev, std::size_t heap_bytes)
      : Halloc(dev, heap_bytes, Config{}) {}

  [[nodiscard]] const Config& config() const { return cfg_; }

  [[nodiscard]] const core::AllocatorTraits& traits() const override;
  [[nodiscard]] void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override;
  void free(gpu::ThreadCtx& ctx, void* ptr) override;

  /// Default block size classes: halloc's 16 B ... 3 KiB mixed ladder.
  /// Instances route through their configured `classes_` — this stays for
  /// callers needing the paper geometry without an instance.
  static const alloc_core::SizeClassMap& block_classes();

 private:
  // Slab state word: {class+1 : high 32 (0 = unassigned), used count : low}.
  static std::uint64_t make_state(std::uint32_t cls_plus1,
                                  std::uint32_t count) {
    return (static_cast<std::uint64_t>(cls_plus1) << 32) | count;
  }
  static std::uint32_t state_cls(std::uint64_t s) {
    return static_cast<std::uint32_t>(s >> 32);
  }
  static std::uint32_t state_count(std::uint64_t s) {
    return static_cast<std::uint32_t>(s);
  }

  [[nodiscard]] std::uint32_t capacity(std::uint32_t cls) const {
    return static_cast<std::uint32_t>(cfg_.slab_bytes /
                                      classes_.class_bytes(cls));
  }
  [[nodiscard]] std::uint64_t* slab_bitmap(std::uint32_t slab) {
    return bitmaps_ + std::size_t{slab} * bitmap_words_;
  }

  /// Claims one free bit in `slab` via the hash traversal; the caller must
  /// hold a count reservation. Returns the block index.
  std::uint32_t claim_block(gpu::ThreadCtx& ctx, std::uint32_t slab,
                            std::uint32_t cls);

  /// Installs a usable head slab for `cls` (free queue, then sparse/partial
  /// scan, finally busy slabs) and returns it; kInvalid when out of slabs.
  std::uint32_t replace_head(gpu::ThreadCtx& ctx, std::uint32_t cls,
                             std::uint32_t stale_head);

  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

  Config cfg_;
  alloc_core::SizeClassMap classes_;  ///< parsed from cfg_.ladder
  core::AllocatorTraits traits_;      ///< kTraits with the ladder's max rung
  std::uint32_t num_slabs_ = 0;
  std::size_t bitmap_words_ = 0;

  std::uint64_t* slab_state_ = nullptr;
  std::uint64_t* bitmaps_ = nullptr;
  std::uint32_t* heads_ = nullptr;  // per class
  BoundedTicketQueue free_slabs_;
  std::byte* slab_base_ = nullptr;
  alloc_core::LargeRequestRelay relay_;
};

}  // namespace gms::alloc
