#pragma once

#include <cstdint>
#include <string>

#include "core/error_sink.h"
#include "core/registry.h"

namespace gms::core {

/// Decorator that wraps any registered manager with memory-safety validation,
/// the harness's immune system for the survey's stability axis (§4.5,
/// Table 1's "stable" column): several of the surveyed allocators hang or
/// corrupt memory outside their comfort zone, and without a validating layer
/// the benchmarks would take each manager's word for it.
///
/// Mechanisms, composed behind the unchanged MemoryManager interface:
///  * every allocation is padded with front/rear redzone canaries; the front
///    redzone doubles as a header {state, owner lane, size} so free() can
///    detect double frees and foreign pointers before forwarding them into
///    the inner allocator (where they would corrupt the heap);
///  * a shadow bitmap over the inner heap (1 bit per 8-byte granule, carved
///    from the tail of the manager's arena slice) catches overlapping
///    allocations and out-of-heap returns the moment malloc yields them;
///  * a start bitmap beside it (1 bit per granule, set at each live payload
///    start) is the live set: the end-of-run leak scan, the audit and the
///    host-side redzone sweeps walk its set bits in address order, and the
///    header is the only record of each block's size and owner lane;
///  * a warp span per slot (global warp id modulo a power of two) bounds the
///    start-bitmap words that hold the live blocks of the warps in that
///    slot, so warp_free_all walks its own warp's blocks, not the heap.
///
/// Errors are never fatal: they are recorded into a DeviceErrorSink (per-SM
/// rings, like StatsCounters) and drained into a LaunchReport, so a corrupting
/// allocator degrades into a diagnosed one instead of crashing the bench. A
/// detected double free / foreign free is contained: it is reported and NOT
/// forwarded to the inner allocator.
///
/// The validate stack stage: benches opt in with `-t Name+V` or
/// `--stack validate`, which StackSpec reads as the same stage.
class ValidatingManager final : public MemoryManager {
 public:
  /// Carves the validation metadata from the tail of `heap_bytes` and builds
  /// the inner manager over the remaining prefix. The carve must read as
  /// zero (a fresh or cleared arena, as StackBuilder::build provides): both
  /// bitmaps start empty without being written, so construction touches no
  /// metadata page and a run pays only for the pages its blocks cover.
  ValidatingManager(gpu::Device& dev, std::size_t heap_bytes,
                    const ManagerFactory& make_inner);

  [[nodiscard]] const AllocatorTraits& traits() const override { return traits_; }
  [[nodiscard]] void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override;
  void free(gpu::ThreadCtx& ctx, void* ptr) override;
  [[nodiscard]] void* warp_malloc(gpu::ThreadCtx& ctx,
                                  std::size_t size) override;
  void warp_free_all(gpu::ThreadCtx& ctx) override;

  [[nodiscard]] MemoryManager& inner() { return *inner_; }

  /// Live allocations currently tracked (host-side scan).
  [[nodiscard]] std::uint64_t live_count() const;

  /// Host-side end-of-run check: sweeps every live allocation's redzones,
  /// optionally flags still-live allocations as leaks, and drains the sink.
  /// Call between launches only.
  LaunchReport drain_report(bool leaks_are_errors = false);

  /// Heap-integrity audit: non-destructively sweeps every live block's
  /// header (magic, a size inside the inner heap) and canaries, then folds
  /// in the inner manager's own audit. Unlike drain_report this neither
  /// drains the sink nor records new errors, so it can run after every
  /// kernel without perturbing the end-of-run report.
  [[nodiscard]] AuditResult audit() override;

  /// Redzone bytes in front of each payload (header + canaries).
  static constexpr std::size_t kFrontBytes = 32;
  /// Canary bytes behind each payload.
  static constexpr std::size_t kRearBytes = 16;

 private:
  struct Header;  // lives in the front redzone

  [[nodiscard]] void* wrap_allocation(gpu::ThreadCtx& ctx, std::size_t size,
                                      void* raw);
  /// Marks [off, off+len) of the inner heap as allocated; returns true when
  /// any granule was already marked (overlapping allocation).
  bool shadow_mark(std::size_t off, std::size_t len);
  void shadow_clear(std::size_t off, std::size_t len);
  /// Calls fn(payload_off) for every set start bit in start-bitmap words
  /// [first_word, end_word), in address order.
  template <typename Fn>
  void for_each_start(std::size_t first_word, std::size_t end_word,
                      Fn&& fn) const;
  [[nodiscard]] Header* header_at(std::uint64_t payload_off) const;
  /// True when a `size`-byte payload at `payload_off` and its rear canary
  /// end inside the inner heap.
  [[nodiscard]] bool fits(std::uint64_t payload_off, std::uint64_t size) const;
  /// True when the block fits and its front/rear canaries are intact; reads
  /// nothing outside the inner heap, whatever `size` says.
  [[nodiscard]] bool redzones_intact(std::uint64_t payload_off,
                                     std::uint64_t size) const;
  /// Why the block at a set start bit fails the audit (no live magic, a size
  /// past the inner heap, a damaged canary), or nullptr when it is intact.
  [[nodiscard]] const char* damage(std::uint64_t payload_off) const;
  /// Retires a block the caller just claimed (header magic CAS'd to
  /// kFreed): reports damaged redzones, clears its shadow and start bits.
  void retire(gpu::ThreadCtx& ctx, std::uint64_t payload_off);
  /// Widens the span of `warp`'s slot to cover start-bitmap word `word`.
  void widen_span(std::uint32_t warp, std::uint64_t word);
  /// Retires every live block of `warp` inside its slot's span.
  void release_warp_entries(gpu::ThreadCtx& ctx, std::uint32_t warp);

  [[nodiscard]] std::uint64_t canary_word(std::uint64_t off,
                                          unsigned salt) const;

  std::string name_;  ///< backs traits_.name ("<inner>+V")
  AllocatorTraits traits_{};
  std::unique_ptr<MemoryManager> inner_;
  DeviceErrorSink sink_;

  std::byte* heap_base_ = nullptr;
  std::size_t inner_heap_bytes_ = 0;
  std::uint64_t* shadow_ = nullptr;  ///< arena-backed, 1 bit / 8 bytes
  std::uint64_t* starts_ = nullptr;  ///< arena-backed, 1 bit / payload start
  std::size_t bitmap_words_ = 0;     ///< words in each bitmap
  std::uint64_t* spans_ = nullptr;   ///< arena-backed, one word per slot
  std::size_t span_mask_ = 0;        ///< slots - 1 (a power of two)
};

}  // namespace gms::core
