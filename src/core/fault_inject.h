#pragma once

#include <atomic>
#include <cstdint>

#include "core/memory_manager.h"

namespace gms::core {

template <typename C>
class ConfigSchema;

/// Knobs of a "fault" stack stage ("fault{mode=nth,n=7}"). Three
/// deterministic schedules:
///   mode=nth,n=N          every Nth malloc (1-based) returns nullptr
///   mode=prob,p=P,seed=S  each malloc fails with probability P, hashed from
///                         the global call index and seed S — reproducible,
///                         not random
///   mode=budget,budget=B  mallocs fail once B bytes were handed out
///                         cumulatively
/// The default, mode=none, is a pass-through injector.
struct FaultSpec {
  enum class Mode : std::uint8_t { kNone, kNth, kProb, kBudget };
  Mode mode = Mode::kNone;
  std::uint64_t n = 0;            ///< kNth period
  double p = 0.0;                 ///< kProb probability
  std::uint64_t seed = 1;         ///< kProb hash seed
  std::uint64_t budget_bytes = 0; ///< kBudget cumulative allowance

  /// Keys mode|n|p|seed|budget; mode=nth needs n >= 1.
  static const ConfigSchema<FaultSpec>& config_schema();
};

/// Decorator that forces the inner allocator's OOM path on a deterministic
/// schedule. The paper's benchmarks only reach allocation failure by
/// exhausting the heap (§4.4); this injector reaches the same nullptr-return
/// path on demand, so "handles OOM without crashing" becomes testable for
/// every manager at any heap size — and seeded, so a failing interleaving
/// replays. Injected failures never touch the inner manager (its counters
/// and heap state see only the surviving calls).
class FaultInjector final : public MemoryManager {
 public:
  FaultInjector(std::unique_ptr<MemoryManager> inner, FaultSpec spec);

  /// Transparent: the inner manager's traits, name included.
  [[nodiscard]] const AllocatorTraits& traits() const override {
    return inner_->traits();
  }
  [[nodiscard]] void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override;
  void free(gpu::ThreadCtx& ctx, void* ptr) override;
  [[nodiscard]] void* warp_malloc(gpu::ThreadCtx& ctx,
                                  std::size_t size) override;
  void warp_free_all(gpu::ThreadCtx& ctx) override;

  [[nodiscard]] MemoryManager& inner() { return *inner_; }
  [[nodiscard]] const FaultSpec& spec() const { return spec_; }

  /// The injector owns no heap metadata of its own: audits pass through to
  /// the wrapped manager so a fault-driven run still gets real introspection.
  [[nodiscard]] AuditResult audit() override { return inner_->audit(); }

  /// Mallocs failed by the injector (not by the inner allocator).
  [[nodiscard]] std::uint64_t injected_failures() const {
    return injected_.load(std::memory_order_relaxed);
  }
  /// Total mallocs observed (injected + forwarded).
  [[nodiscard]] std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  /// True when the call with this global index / size must fail.
  [[nodiscard]] bool should_fail(std::uint64_t call_idx, std::size_t size);

  std::unique_ptr<MemoryManager> inner_;
  FaultSpec spec_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> bytes_granted_{0};
};

}  // namespace gms::core
