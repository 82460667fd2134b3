#include "core/fault_inject.h"

#include "core/alloc_config.h"
#include "gpu/thread_ctx.h"

namespace gms::core {

namespace {

constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

const ConfigSchema<FaultSpec>& FaultSpec::config_schema() {
  static const auto schema = [] {
    ConfigSchema<FaultSpec> s;
    s.enum_("mode", &FaultSpec::mode,
            {{"none", Mode::kNone},
             {"nth", Mode::kNth},
             {"prob", Mode::kProb},
             {"budget", Mode::kBudget}})
        .u64("n", &FaultSpec::n, 0, ~std::uint64_t{0})
        .dbl("p", &FaultSpec::p, 0.0, 1.0)
        .u64("seed", &FaultSpec::seed, 0, ~std::uint64_t{0})
        .u64("budget", &FaultSpec::budget_bytes, 0, ~std::uint64_t{0})
        .check([](const FaultSpec& f) {
          if (f.mode == Mode::kNth && f.n == 0) {
            throw ConfigError(ConfigError::Kind::kOutOfRange, "n",
                              "config field 'n': mode=nth needs n >= 1");
          }
        });
    return s;
  }();
  return schema;
}

FaultInjector::FaultInjector(std::unique_ptr<MemoryManager> inner,
                             FaultSpec spec)
    : inner_(std::move(inner)), spec_(spec) {
  init_ms_ = inner_->init_ms();
}

bool FaultInjector::should_fail(std::uint64_t call_idx, std::size_t size) {
  switch (spec_.mode) {
    case FaultSpec::Mode::kNone:
      return false;
    case FaultSpec::Mode::kNth:
      return (call_idx + 1) % spec_.n == 0;
    case FaultSpec::Mode::kProb:
      // Hash of (seed, call index): the schedule depends only on the call
      // order, so a seeded run replays the same failure set.
      return static_cast<double>(mix64(spec_.seed ^ call_idx) >> 11) *
                 0x1.0p-53 <
             spec_.p;
    case FaultSpec::Mode::kBudget:
      return bytes_granted_.load(std::memory_order_relaxed) +
                 static_cast<std::uint64_t>(size) >
             spec_.budget_bytes;
  }
  return false;
}

void* FaultInjector::malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  const std::uint64_t idx = calls_.fetch_add(1, std::memory_order_relaxed);
  if (should_fail(idx, size)) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  void* p = inner_->malloc(ctx, size);
  if (p != nullptr) {
    bytes_granted_.fetch_add(size, std::memory_order_relaxed);
  }
  return p;
}

void* FaultInjector::warp_malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  // The decision must be warp-uniform: if one lane bailed with nullptr while
  // its siblings entered a cooperative inner warp_malloc, the inner leader
  // vote would wait forever. One counter tick per group, leader decides,
  // everyone honours it.
  const gpu::Coalesced g = ctx.coalesce();
  std::uint64_t fail = 0;
  if (g.is_leader()) {
    const std::uint64_t idx = calls_.fetch_add(1, std::memory_order_relaxed);
    fail = should_fail(idx, size) ? 1 : 0;
    if (fail != 0) injected_.fetch_add(1, std::memory_order_relaxed);
  }
  fail = ctx.broadcast(g, fail, g.leader);
  if (fail != 0) return nullptr;
  void* p = inner_->warp_malloc(ctx, size);
  if (p != nullptr && g.is_leader()) {
    bytes_granted_.fetch_add(static_cast<std::uint64_t>(size) * g.size,
                             std::memory_order_relaxed);
  }
  return p;
}

void FaultInjector::free(gpu::ThreadCtx& ctx, void* ptr) {
  inner_->free(ctx, ptr);
}

void FaultInjector::warp_free_all(gpu::ThreadCtx& ctx) {
  inner_->warp_free_all(ctx);
}

}  // namespace gms::core
