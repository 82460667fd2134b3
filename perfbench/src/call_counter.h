#pragma once

#include <cstdint>
#include <memory>

#include "core/memory_manager.h"
#include "gpu/stats.h"

namespace perfbench {

namespace core = gms::core;
namespace gpu = gms::gpu;

/// Counts the calls a library routine (work::run_*) makes into a manager's
/// MemoryManager::malloc / free, from outside: it forwards every call to
/// the wrapped manager and bumps a counter in the calling SM's slot. Each
/// slot is written only by its SM's worker thread and read by the host
/// between launches, so plain counters suffice.
class CallCounter final : public core::MemoryManager {
 public:
  struct Counts {
    std::uint64_t mallocs = 0;  ///< malloc + warp_malloc calls
    std::uint64_t failed = 0;   ///< of those, nullptr returns
    std::uint64_t frees = 0;    ///< free + warp_free_all calls
    [[nodiscard]] std::uint64_t ops() const { return mallocs + frees; }
  };

  CallCounter(core::MemoryManager& inner, unsigned num_sms)
      : inner_(inner), slots_(new Slot[num_sms]), num_sms_(num_sms) {}

  [[nodiscard]] const core::AllocatorTraits& traits() const override {
    return inner_.traits();
  }
  [[nodiscard]] void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override {
    return note(ctx, inner_.malloc(ctx, size));
  }
  void free(gpu::ThreadCtx& ctx, void* ptr) override {
    ++slots_[ctx.smid()].c.frees;
    inner_.free(ctx, ptr);
  }
  [[nodiscard]] void* warp_malloc(gpu::ThreadCtx& ctx,
                                  std::size_t size) override {
    return note(ctx, inner_.warp_malloc(ctx, size));
  }
  void warp_free_all(gpu::ThreadCtx& ctx) override {
    ++slots_[ctx.smid()].c.frees;
    inner_.warp_free_all(ctx);
  }
  [[nodiscard]] core::AuditResult audit() override { return inner_.audit(); }

  /// Sum over SMs; call between launches only.
  [[nodiscard]] Counts totals() const {
    Counts t;
    for (unsigned i = 0; i < num_sms_; ++i) {
      t.mallocs += slots_[i].c.mallocs;
      t.failed += slots_[i].c.failed;
      t.frees += slots_[i].c.frees;
    }
    return t;
  }

 private:
  struct alignas(gpu::kDestructiveInterferenceSize) Slot {
    Counts c;
  };

  void* note(gpu::ThreadCtx& ctx, void* p) {
    auto& c = slots_[ctx.smid()].c;
    ++c.mallocs;
    if (p == nullptr) ++c.failed;
    return p;
  }

  core::MemoryManager& inner_;
  std::unique_ptr<Slot[]> slots_;
  unsigned num_sms_;
};

}  // namespace perfbench
