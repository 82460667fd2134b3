#include "alloc_core/resilient_manager.h"

#include <algorithm>
#include <cassert>

#include "core/stack_spec.h"
#include "core/utils.h"

namespace gms::alloc_core {

namespace {

/// Tail slice handed to the ReservePool: spec percent of the heap, at least
/// 64 KiB so even probe-sized heaps get a workable emergency ration.
std::size_t reserve_slice(std::size_t heap_bytes,
                          const core::ResilienceSpec& spec) {
  std::size_t r = heap_bytes / 100 * spec.reserve_percent;
  r = std::max<std::size_t>(r, std::size_t{64} * 1024);
  return core::round_up(r, 64);
}

}  // namespace

ResilientManager::ResilientManager(gpu::Device& dev, std::size_t heap_bytes,
                                   const core::ManagerFactory& make_inner,
                                   core::ResilienceSpec spec)
    : spec_(spec),
      inner_heap_bytes_((heap_bytes - reserve_slice(heap_bytes, spec)) &
                        ~std::size_t{63}),
      reserve_(dev.arena().data() + inner_heap_bytes_,
               heap_bytes - inner_heap_bytes_),
      sites_(std::make_unique<Site[]>(kSites)) {
  assert(heap_bytes > 2 * reserve_slice(heap_bytes, spec) &&
         "heap too small for a resilient stage");
  const core::Stopwatch sw;
  sites_map_ = SizeClassMap::geometric(SizeClassMap::kGranule,
                                       SizeClassMap::kMaxClasses);
  inner_ = make_inner(dev, inner_heap_bytes_);
  name_ = std::string(inner_->traits().name);
  name_ += core::StackSpec::suffix(core::StackSpec::Stage::kResilient);
  traits_ = inner_->traits();
  traits_.name = name_;
  // The escalation chain adds a handful of locals to the hot path only when
  // the inner manager has already failed; the happy path carries the site
  // lookup and one relaxed breaker load.
  traits_.malloc_state_bytes += 24;
  traits_.free_state_bytes += 8;
  init_ms_ = sw.elapsed_ms();
}

unsigned ResilientManager::site_for(std::size_t size) const {
  const unsigned cls = sites_map_.class_for(SizeClassMap::round16(
      size == 0 ? std::size_t{1} : size));
  return cls == SizeClassMap::kNoClass ? kSites - 1 : cls;
}

void ResilientManager::spin_backoff(gpu::ThreadCtx& ctx, unsigned attempt,
                                    bool per_lane) {
  // Exponential in the attempt plus a seeded per-lane jitter, so a
  // thundering herd of failed lanes de-synchronises deterministically.
  // Warp-cooperative paths use a lane-independent jitter to keep the
  // coalesced group together across the retry.
  const std::uint64_t salt = per_lane ? ctx.thread_rank() : 0x5A17;
  core::SplitMix64 rng(spec_.seed ^ (salt << 20) ^ attempt);
  std::uint64_t rounds = (std::uint64_t{spec_.backoff_base} << (attempt - 1)) +
                         rng.range(0, spec_.backoff_base - 1);
  for (; rounds > 0; --rounds) ctx.backoff();
}

void* ResilientManager::fallback(gpu::ThreadCtx& ctx, std::size_t size) {
  void* p = reserve_.malloc(ctx, size);
  if (p != nullptr) {
    fallback_allocs_.fetch_add(1, std::memory_order_relaxed);
    trace::mark(sink_, ctx, trace::EventKind::kFallbackAlloc, size,
                inner_heap_bytes_ + reserve_.offset_of(p));
  }
  return p;
}

void* ResilientManager::recovering_malloc(gpu::ThreadCtx& ctx,
                                          std::size_t size, bool warp) {
  Site& s = sites_[site_for(size)];

  if (s.open.load(std::memory_order_relaxed) != 0) {
    const std::uint64_t n =
        s.served_open.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % spec_.breaker_decay != 0) {
      breaker_served_.fetch_add(1, std::memory_order_relaxed);
      if (void* p = fallback(ctx, size)) return p;
      // Reserve dry while parked: fall through and probe the inner manager
      // anyway — shedding to an empty pool would manufacture failures.
    }
    // Every breaker_decay-th call half-opens: probe the inner manager below.
  }

  void* p = warp ? inner_->warp_malloc(ctx, size) : inner_->malloc(ctx, size);
  if (p == nullptr) inner_failures_.fetch_add(1, std::memory_order_relaxed);
  unsigned attempt = 0;
  while (p == nullptr && attempt < spec_.retries) {
    ++attempt;
    retries_.fetch_add(1, std::memory_order_relaxed);
    spin_backoff(ctx, attempt, /*per_lane=*/!warp);
    p = warp ? inner_->warp_malloc(ctx, size) : inner_->malloc(ctx, size);
  }

  if (p != nullptr) {
    if (attempt > 0) {
      retry_successes_.fetch_add(1, std::memory_order_relaxed);
      trace::mark(sink_, ctx, trace::EventKind::kRetrySuccess, size, attempt);
    }
    // Store only when there is a streak to end: the site's line is read by
    // every SM, and an unconditional store would bounce it on each success.
    if (s.consecutive.load(std::memory_order_relaxed) != 0) {
      s.consecutive.store(0, std::memory_order_relaxed);
    }
    if (s.open.load(std::memory_order_relaxed) != 0 &&
        s.open.exchange(0, std::memory_order_acq_rel) != 0) {
      breaker_resets_.fetch_add(1, std::memory_order_relaxed);
      trace::mark(sink_, ctx, trace::EventKind::kBreakerReset, size, 0);
    }
    return p;
  }

  const std::uint32_t consec =
      s.consecutive.fetch_add(1, std::memory_order_relaxed) + 1;
  if (consec >= spec_.breaker_threshold &&
      s.open.exchange(1, std::memory_order_acq_rel) == 0) {
    s.served_open.store(0, std::memory_order_relaxed);
    breaker_trips_.fetch_add(1, std::memory_order_relaxed);
    trace::mark(sink_, ctx, trace::EventKind::kBreakerTrip, size, consec);
  }

  if (void* fp = fallback(ctx, size)) return fp;
  unrecovered_.fetch_add(1, std::memory_order_relaxed);
  trace::mark(sink_, ctx, trace::EventKind::kUnrecovered, size, 0);
  return nullptr;
}

void* ResilientManager::malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  return recovering_malloc(ctx, size, /*warp=*/false);
}

void* ResilientManager::warp_malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  return recovering_malloc(ctx, size, /*warp=*/true);
}

void ResilientManager::free(gpu::ThreadCtx& ctx, void* ptr) {
  if (ptr == nullptr) return;  // well-defined no-op at this layer, always
  if (reserve_.owns(ptr)) {
    if (reserve_.free(ctx, ptr) == ReservePool::FreeResult::kFreed) {
      fallback_frees_.fetch_add(1, std::memory_order_relaxed);
      trace::mark(sink_, ctx, trace::EventKind::kFallbackFree, 0,
                  inner_heap_bytes_ + reserve_.offset_of(ptr));
    }
    // Double / invalid frees on reserve pointers are absorbed and counted
    // by the pool; they must never reach the inner manager, whose heap has
    // no idea these addresses exist.
    return;
  }
  inner_->free(ctx, ptr);
}

void ResilientManager::warp_free_all(gpu::ThreadCtx& ctx) {
  inner_->warp_free_all(ctx);
}

core::AuditResult ResilientManager::audit() {
  auto r = reserve_.audit();
  return r.merge(inner_->audit());
}

core::ResilienceReport ResilientManager::report() const {
  core::ResilienceReport r;
  r.inner_failures = inner_failures_.load(std::memory_order_relaxed);
  r.retries = retries_.load(std::memory_order_relaxed);
  r.retry_successes = retry_successes_.load(std::memory_order_relaxed);
  r.fallback_allocs = fallback_allocs_.load(std::memory_order_relaxed);
  r.fallback_frees = fallback_frees_.load(std::memory_order_relaxed);
  r.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  r.breaker_resets = breaker_resets_.load(std::memory_order_relaxed);
  r.breaker_served = breaker_served_.load(std::memory_order_relaxed);
  r.unrecovered = unrecovered_.load(std::memory_order_relaxed);
  r.reserve_exhausted = reserve_.exhausted() + reserve_.rejected_large();
  r.reserve_double_frees = reserve_.double_frees();
  r.reserve_invalid_frees = reserve_.invalid_frees();
  r.reserve_used_bytes = reserve_.used_bytes();
  r.reserve_capacity = reserve_.capacity();
  return r;
}

}  // namespace gms::alloc_core
