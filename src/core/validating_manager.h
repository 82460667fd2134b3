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
///  * a live-pointer table (open addressing, also arena-backed) supports the
///    end-of-run leak scan and host-side redzone sweeps of live blocks.
///
/// Errors are never fatal: they are recorded into a DeviceErrorSink (per-SM
/// rings, like StatsCounters) and drained into a LaunchReport, so a corrupting
/// allocator degrades into a diagnosed one instead of crashing the bench. A
/// detected double free / foreign free is contained: it is reported and NOT
/// forwarded to the inner allocator.
///
/// Every registry variant has a "+V" twin built from this decorator
/// (selector letter 'v'); benches opt in with `-t Name+V` or
/// `--stack validate`.
class ValidatingManager final : public MemoryManager {
 public:
  /// Carves the validation metadata from the tail of `heap_bytes` and builds
  /// the inner manager over the remaining prefix.
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

  /// Heap-integrity audit: non-destructively sweeps every tracked live
  /// block's header magic + canaries and its shadow-bitmap coverage, then
  /// folds in the inner manager's own audit. Unlike drain_report this
  /// neither drains the sink nor records new errors, so it can run after
  /// every kernel without perturbing the end-of-run report.
  [[nodiscard]] AuditResult audit() override;

  /// Redzone bytes in front of each payload (header + canaries).
  static constexpr std::size_t kFrontBytes = 32;
  /// Canary bytes behind each payload.
  static constexpr std::size_t kRearBytes = 16;

  /// Traits a "+V" twin advertises, derivable without building a manager
  /// (registry twin registration probes nothing). Name is left to the
  /// caller; the redzone pad shrinks the inner direct-service limit.
  static AllocatorTraits decorate_traits(AllocatorTraits t);

 private:
  struct Header;  // lives in the front redzone

  [[nodiscard]] void* wrap_allocation(gpu::ThreadCtx& ctx, std::size_t size,
                                      void* raw);
  /// Marks [off, off+len) of the inner heap as allocated; returns true when
  /// any granule was already marked (overlapping allocation).
  bool shadow_mark(std::size_t off, std::size_t len);
  void shadow_clear(std::size_t off, std::size_t len);
  void table_insert(gpu::ThreadCtx& ctx, std::uint64_t payload_off,
                    std::uint64_t size, std::uint32_t rank);
  void table_remove(std::uint64_t payload_off);
  /// True when one tracked live block's front/rear canaries are intact.
  [[nodiscard]] bool redzones_intact(std::uint64_t payload_off,
                                     std::uint64_t size) const;
  /// Validates one tracked live block's header + canaries (host or device)
  /// and records a kRedzone error on damage.
  void check_redzones(gpu::ThreadCtx* ctx, std::uint64_t payload_off,
                      std::uint64_t size, std::uint32_t rank);
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

  struct TableSlot {
    std::uint64_t ptr;   ///< payload offset + 1; 0 = empty, ~0 = tombstone
    std::uint64_t meta;  ///< size << 24 | rank
  };
  TableSlot* table_ = nullptr;  ///< arena-backed open-addressing table
  std::size_t table_capacity_ = 0;
  std::atomic<bool> table_overflowed_{false};
};

}  // namespace gms::core
