#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "alloc_core/reserve_pool.h"
#include "core/memory_manager.h"
#include "core/registry.h"
#include "core/resilience.h"
#include "gpu/device.h"
#include "trace/trace_event.h"

namespace gms::alloc_core {

/// The "+R" failure-recovery decorator: turns the wrapped manager's
/// nullptr-on-OOM into a policy-driven escalation chain (DESIGN.md §11):
///
///   1. bounded in-kernel retry — attempt k spins a deterministic per-lane
///      backoff (`backoff_base << (k-1)` rounds plus a seeded hash jitter of
///      (lane rank, attempt)) and calls the inner manager again; transient
///      failures (a free racing just behind the failed dequeue) recover here
///      with zero reserve spend;
///   2. reserve-pool fallback — a slice carved off the heap tail serves the
///      request so the kernel makes progress while the event is counted;
///   3. per-site circuit breaker — a site (size class) that fails
///      `breaker_threshold` times consecutively trips open and is parked on
///      the fallback path; every `breaker_decay`-th call half-opens the
///      breaker and probes the inner manager, closing it on success.
///
/// Every escalation step is marked (trace::EventKind 24-29) through the
/// stack's trace::MarkerSink; the StackBuilder points it at the recorder
/// when the stack also has a trace stage, so Chrome export shows recovery
/// traffic and the canonical replay digest stays byte-identical (the kinds
/// are markers, outside the digest's allocation-event range).
///
/// Like the other decorators, bookkeeping uses plain std::atomic — the
/// inner allocator's instrumented contention counters see only real
/// allocator work. Caveat for warp-level inners (FDGMalloc): reserve blocks
/// handed out on the warp_malloc fallback path are not covered by
/// warp_free_all and leak until teardown (bounded by the reserve size,
/// visible as fallback_allocs - fallback_frees).
class ResilientManager final : public core::MemoryManager {
 public:
  ResilientManager(gpu::Device& dev, std::size_t heap_bytes,
                   const core::ManagerFactory& make_inner,
                   core::ResilienceSpec spec = {});

  [[nodiscard]] const core::AllocatorTraits& traits() const override {
    return traits_;
  }
  [[nodiscard]] void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override;
  void free(gpu::ThreadCtx& ctx, void* ptr) override;
  [[nodiscard]] void* warp_malloc(gpu::ThreadCtx& ctx,
                                  std::size_t size) override;
  void warp_free_all(gpu::ThreadCtx& ctx) override;
  [[nodiscard]] core::AuditResult audit() override;

  [[nodiscard]] core::MemoryManager& inner() { return *inner_; }
  [[nodiscard]] const core::ResilienceSpec& spec() const { return spec_; }
  [[nodiscard]] ReservePool& reserve() { return reserve_; }

  /// Snapshot of the recovery counters (quiescent reads are exact; mid-run
  /// reads are a consistent-enough monotonic estimate).
  [[nodiscard]] core::ResilienceReport report() const;

  /// Points escalation markers at `sink` (not owned; nullptr = off).
  /// Host-side only; never swap sinks while kernels run.
  void set_marker_sink(trace::MarkerSink* sink) { sink_ = sink; }

 private:
  /// One breaker per size-class site (last slot: larger-than-ladder).
  struct alignas(64) Site {
    std::atomic<std::uint32_t> consecutive{0};
    std::atomic<std::uint32_t> open{0};
    std::atomic<std::uint64_t> served_open{0};
  };
  static constexpr unsigned kSites = SizeClassMap::kMaxClasses + 1;

  [[nodiscard]] unsigned site_for(std::size_t size) const;
  void spin_backoff(gpu::ThreadCtx& ctx, unsigned attempt, bool per_lane);
  /// The shared malloc/warp_malloc escalation chain.
  [[nodiscard]] void* recovering_malloc(gpu::ThreadCtx& ctx, std::size_t size,
                                        bool warp);
  [[nodiscard]] void* fallback(gpu::ThreadCtx& ctx, std::size_t size);

  core::ResilienceSpec spec_;
  std::size_t inner_heap_bytes_;
  ReservePool reserve_;
  std::unique_ptr<core::MemoryManager> inner_;
  trace::MarkerSink* sink_ = nullptr;
  std::string name_;
  core::AllocatorTraits traits_;
  SizeClassMap sites_map_;

  std::unique_ptr<Site[]> sites_;
  std::atomic<std::uint64_t> inner_failures_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> retry_successes_{0};
  std::atomic<std::uint64_t> fallback_allocs_{0};
  std::atomic<std::uint64_t> fallback_frees_{0};
  std::atomic<std::uint64_t> breaker_trips_{0};
  std::atomic<std::uint64_t> breaker_resets_{0};
  std::atomic<std::uint64_t> breaker_served_{0};
  std::atomic<std::uint64_t> unrecovered_{0};
};

}  // namespace gms::alloc_core
