// Failure-recovery layer tests (DESIGN.md §11): the "+R" escalation chain —
// deterministic seeded retry/backoff (same seed, same stack → byte-identical
// canonical digests, recovery markers outside the digest), the per-site
// circuit breaker's trip / half-open / reset machine against a controllable
// flaky inner manager, the reserve pool's deterministic exhaustion ordering
// and well-defined double/invalid/null frees, and the greedy trace
// minimizer's convergence against a synthetic verdict oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "alloc_core/reserve_pool.h"
#include "alloc_core/resilient_manager.h"
#include "core/fault_inject.h"
#include "core/registry.h"
#include "core/resilience.h"
#include "core/stack_builder.h"
#include "gpu/device.h"
#include "trace/trace_event.h"
#include "trace/trace_format.h"
#include "trace/trace_minimizer.h"
#include "trace/trace_recorder.h"

namespace gms {
namespace {

using gpu::Device;
using gpu::GpuConfig;
using gpu::ThreadCtx;

constexpr std::size_t kHeapBytes = 64u << 20;  // ScatterAlloc wants >16 MB
constexpr std::size_t kArenaBytes = kHeapBytes + (8u << 20);

struct RegisterAllocators {
  RegisterAllocators() { core::register_all_allocators(); }
};
const RegisterAllocators register_allocators;

// ---- retry/backoff determinism -------------------------------------------

struct ChurnRun {
  std::vector<trace::TraceEvent> events;
  core::ResilienceReport report;
  std::uint64_t kernel_visible_failures = 0;
};

/// One traced churn session under "trace>resilient>fault>ScatterAlloc" with
/// a hostile injector, so the recovery chain fires constantly.
ChurnRun churn_under_faults(std::uint64_t seed) {
  Device dev(kArenaBytes, GpuConfig{.num_sms = 2});
  auto stack = core::StackBuilder(dev).build(
      "trace>resilient{seed=" + std::to_string(seed) +
          "}>fault{mode=nth,n=7}>ScatterAlloc",
      kHeapBytes);
  stack.recorder->set_enabled(true);

  constexpr std::size_t kThreads = 256;
  ChurnRun run;
  std::vector<void*> ptrs(kThreads, nullptr);
  std::atomic<std::uint64_t> nulls{0};
  for (unsigned round = 0; round < 4; ++round) {
    dev.launch_n(kThreads, [&](ThreadCtx& t) {
      const std::size_t size = 16 + (t.thread_rank() % 7) * 16;
      void* p = stack.manager->malloc(t, size);
      if (p == nullptr) {
        nulls.fetch_add(1, std::memory_order_relaxed);
      } else {
        *static_cast<std::uint8_t*>(p) = 1;
      }
      ptrs[t.thread_rank()] = p;
    });
    dev.launch_n(kThreads, [&](ThreadCtx& t) {
      stack.manager->free(t, ptrs[t.thread_rank()]);
    });
  }

  stack.recorder->set_enabled(false);
  dev.set_launch_observer(nullptr);
  run.events = stack.recorder->drain();
  run.report = stack.resilient->report();
  run.kernel_visible_failures = nulls.load();
  return run;
}

TEST(ResilienceDeterminism, SameSeedSameStackSameDigest) {
  const auto a = churn_under_faults(0x5EED);
  const auto b = churn_under_faults(0x5EED);

  // The injector really fired and the chain really recovered everything.
  ASSERT_GT(a.report.inner_failures, 0u);
  EXPECT_EQ(a.report.unrecovered, 0u);
  EXPECT_EQ(a.kernel_visible_failures, 0u);
  EXPECT_GT(a.report.retry_successes + a.report.fallback_allocs, 0u);

  // Same seed → the recovered sessions are byte-identical request streams.
  EXPECT_EQ(trace::canonical_digest(a.events),
            trace::canonical_digest(b.events));
  EXPECT_EQ(a.report.retries, b.report.retries);
  EXPECT_EQ(a.report.retry_successes, b.report.retry_successes);
  EXPECT_EQ(a.report.fallback_allocs, b.report.fallback_allocs);
}

TEST(ResilienceDeterminism, MarkersRideAlongOutsideTheDigest) {
  const auto run = churn_under_faults(0x5EED);

  // Recovery traffic shows up as first-class marker events…
  std::uint64_t markers = 0;
  std::vector<trace::TraceEvent> alloc_only;
  for (const auto& ev : run.events) {
    if (trace::is_resilience_event(ev.event_kind())) ++markers;
    if (trace::is_alloc_event(ev.event_kind())) alloc_only.push_back(ev);
  }
  EXPECT_GT(markers, 0u);

  // …but never perturb the canonical replay digest (markers excluded).
  EXPECT_EQ(trace::canonical_digest(run.events),
            trace::canonical_digest(alloc_only));
}

TEST(ResilienceDeterminism, DifferentSeedStillRecoversEverything) {
  const auto run = churn_under_faults(0xBADC0FFE);
  EXPECT_GT(run.report.inner_failures, 0u);
  EXPECT_EQ(run.report.unrecovered, 0u);
  EXPECT_EQ(run.kernel_visible_failures, 0u);
}

// ---- circuit breaker against a controllable inner ------------------------

/// Inner manager whose failure behaviour the test flips at will: serves
/// bump-carved blocks from its own host buffer unless `fail` is set.
class FlakyManager final : public core::MemoryManager {
 public:
  FlakyManager() : buffer_(1u << 20) {
    traits_.name = "Flaky";
    traits_.family = "test";
  }

  [[nodiscard]] const core::AllocatorTraits& traits() const override {
    return traits_;
  }
  [[nodiscard]] void* malloc(gpu::ThreadCtx&, std::size_t size) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (fail.load(std::memory_order_relaxed)) return nullptr;
    const std::size_t off =
        bump_.fetch_add((size + 63) & ~std::size_t{63});
    return off + size <= buffer_.size() ? buffer_.data() + off : nullptr;
  }
  void free(gpu::ThreadCtx&, void* ptr) override {
    if (ptr != nullptr) frees.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<bool> fail{false};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> frees{0};

 private:
  core::AllocatorTraits traits_;
  std::vector<std::byte> buffer_;
  std::atomic<std::size_t> bump_{0};
};

TEST(CircuitBreaker, TripsParksAndResetsThroughHalfOpenProbes) {
  Device dev(8u << 20, GpuConfig{.num_sms = 1});
  core::ResilienceSpec spec;
  spec.retries = 1;
  spec.breaker_threshold = 4;
  spec.breaker_decay = 8;

  FlakyManager* flaky = nullptr;
  alloc_core::ResilientManager mgr(
      dev, 4u << 20,
      [&](gpu::Device&, std::size_t) {
        auto inner = std::make_unique<FlakyManager>();
        flaky = inner.get();
        return inner;
      },
      spec);
  ASSERT_NE(flaky, nullptr);

  auto one_malloc = [&]() {
    void* out = nullptr;
    dev.launch_n(1, [&](ThreadCtx& t) { out = mgr.malloc(t, 64); });
    return out;
  };

  // Phase 1: a failing inner. threshold consecutive failures trip the site.
  flaky->fail = true;
  for (unsigned i = 0; i < spec.breaker_threshold; ++i) {
    void* p = one_malloc();
    ASSERT_NE(p, nullptr);                  // reserve fallback kept progress
    EXPECT_TRUE(mgr.reserve().owns(p));
  }
  auto rep = mgr.report();
  EXPECT_EQ(rep.breaker_trips, 1u);
  EXPECT_EQ(rep.inner_failures, spec.breaker_threshold);
  // retries=1: every failure burned exactly one retry attempt.
  EXPECT_EQ(rep.retries, spec.breaker_threshold);

  // Phase 2: open breaker parks the site on the reserve. Only the
  // half-open probe (every decay-th served call) touches the inner.
  const std::uint64_t calls_at_trip = flaky->calls.load();
  for (unsigned i = 0; i < 14; ++i) {
    ASSERT_NE(one_malloc(), nullptr);
  }
  rep = mgr.report();
  EXPECT_GT(rep.breaker_served, 0u);
  // 14 open-phase calls at decay=8: exactly one half-open probe, which
  // failed (1 first attempt + 1 retry = 2 inner calls).
  EXPECT_EQ(flaky->calls.load() - calls_at_trip, 2u);
  EXPECT_EQ(rep.breaker_resets, 0u);

  // Phase 3: the inner heals; the next half-open probe closes the breaker
  // and traffic returns to the inner manager.
  flaky->fail = false;
  void* healed = nullptr;
  for (unsigned i = 0; i < spec.breaker_decay + 1 && healed == nullptr; ++i) {
    void* p = one_malloc();
    ASSERT_NE(p, nullptr);
    if (!mgr.reserve().owns(p)) healed = p;
  }
  ASSERT_NE(healed, nullptr);
  rep = mgr.report();
  EXPECT_EQ(rep.breaker_resets, 1u);
  EXPECT_EQ(rep.unrecovered, 0u);

  // Closed again: requests go straight to the inner, no reserve spend.
  const std::uint64_t fallbacks_after_reset = rep.fallback_allocs;
  for (unsigned i = 0; i < 4; ++i) {
    void* p = one_malloc();
    ASSERT_NE(p, nullptr);
    EXPECT_FALSE(mgr.reserve().owns(p));
  }
  EXPECT_EQ(mgr.report().fallback_allocs, fallbacks_after_reset);
}

// ---- breaker reuse from host threads (the service health path) -----------
//
// The AllocService (DESIGN.md §13) drives the same CircuitBreaker from
// plain host threads feeding shard verdicts, not from in-kernel lanes. The
// single-trip / single-reset exchange semantics and the probe-ticket cadence
// must hold under genuine std::thread races.

TEST(CircuitBreakerConcurrent, ExactlyOneThreadObservesTheTrip) {
  for (unsigned iter = 0; iter < 16; ++iter) {
    core::CircuitBreaker breaker(/*threshold=*/3, /*decay=*/4);
    std::atomic<unsigned> tripped{0};
    std::vector<std::thread> feeders;
    feeders.reserve(8);
    for (unsigned t = 0; t < 8; ++t) {
      feeders.emplace_back([&] {
        for (unsigned i = 0; i < 64; ++i) {
          if (breaker.record_failure()) tripped.fetch_add(1);
        }
      });
    }
    for (auto& th : feeders) th.join();
    // 512 racing failures, but record_failure's open exchange elects
    // exactly one winner: one observed trip, one accounted trip.
    EXPECT_EQ(tripped.load(), 1u);
    EXPECT_EQ(breaker.trips(), 1u);
    EXPECT_TRUE(breaker.open());
    EXPECT_EQ(breaker.consecutive_failures(), 512u);
  }
}

TEST(CircuitBreakerConcurrent, ExactlyOneThreadObservesTheReset) {
  for (unsigned iter = 0; iter < 16; ++iter) {
    core::CircuitBreaker breaker(/*threshold=*/1, /*decay=*/4);
    ASSERT_TRUE(breaker.record_failure());
    std::atomic<unsigned> resets{0};
    std::vector<std::thread> healers;
    healers.reserve(8);
    for (unsigned t = 0; t < 8; ++t) {
      healers.emplace_back([&] {
        for (unsigned i = 0; i < 64; ++i) {
          if (breaker.record_success()) resets.fetch_add(1);
        }
      });
    }
    for (auto& th : healers) th.join();
    EXPECT_EQ(resets.load(), 1u);
    EXPECT_EQ(breaker.resets(), 1u);
    EXPECT_FALSE(breaker.open());
    EXPECT_EQ(breaker.consecutive_failures(), 0u);
  }
}

TEST(CircuitBreakerConcurrent, ProbeTicketCadenceHoldsAcrossRacingPolls) {
  constexpr std::uint64_t kDecay = 8;
  constexpr unsigned kThreads = 8;
  constexpr unsigned kPollsPerThread = 200;
  core::CircuitBreaker breaker(/*threshold=*/1, kDecay);
  ASSERT_TRUE(breaker.record_failure());
  std::atomic<std::uint64_t> elected{0};
  std::vector<std::thread> pollers;
  pollers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pollers.emplace_back([&] {
      for (unsigned i = 0; i < kPollsPerThread; ++i) {
        if (breaker.probe_ticket()) elected.fetch_add(1);
      }
    });
  }
  for (auto& th : pollers) th.join();
  // Ticketed fetch_add: the election count is exactly polls/decay, no
  // double elections and no skipped windows, however the threads interleave.
  EXPECT_EQ(elected.load(), kThreads * kPollsPerThread / kDecay);

  // A closed breaker elects nobody, even under the same contention.
  ASSERT_TRUE(breaker.record_success());
  std::atomic<std::uint64_t> closed_elections{0};
  std::vector<std::thread> closed_pollers;
  closed_pollers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    closed_pollers.emplace_back([&] {
      for (unsigned i = 0; i < kPollsPerThread; ++i) {
        if (breaker.probe_ticket()) closed_elections.fetch_add(1);
      }
    });
  }
  for (auto& th : closed_pollers) th.join();
  EXPECT_EQ(closed_elections.load(), 0u);
}

TEST(CircuitBreakerConcurrent, TripResetCyclesStayBalancedUnderMixedFeeds) {
  // Alternating failure and success storms from different threads — the
  // shape of a flapping device under the service's health tracker. Trips
  // and resets must stay balanced (every trip has at most one reset, and
  // the final state matches the last storm).
  core::CircuitBreaker breaker(/*threshold=*/2, /*decay=*/4);
  for (unsigned cycle = 0; cycle < 8; ++cycle) {
    std::vector<std::thread> feeders;
    feeders.reserve(4);
    for (unsigned t = 0; t < 4; ++t) {
      feeders.emplace_back([&] {
        for (unsigned i = 0; i < 16; ++i) breaker.record_failure();
      });
    }
    for (auto& th : feeders) th.join();
    EXPECT_TRUE(breaker.open());
    EXPECT_EQ(breaker.trips(), cycle + 1);

    std::vector<std::thread> healers;
    healers.reserve(4);
    for (unsigned t = 0; t < 4; ++t) {
      healers.emplace_back([&] {
        for (unsigned i = 0; i < 16; ++i) breaker.record_success();
      });
    }
    for (auto& th : healers) th.join();
    EXPECT_FALSE(breaker.open());
    EXPECT_EQ(breaker.resets(), cycle + 1);
  }
}

// ---- reserve pool contracts ----------------------------------------------

TEST(ReservePool, DeterministicExhaustionOrdering) {
  Device dev(1u << 20, GpuConfig{.num_sms = 1});
  std::vector<std::byte> slab_a(64 * 1024), slab_b(64 * 1024);
  alloc_core::ReservePool a(slab_a.data(), slab_a.size());
  alloc_core::ReservePool b(slab_b.data(), slab_b.size());

  // Fill to exhaustion twice on identical pools: the bump cursor's failure
  // point is a deterministic function of the request sequence.
  auto fill = [&](alloc_core::ReservePool& pool) {
    std::vector<void*> blocks;
    dev.launch_n(1, [&](ThreadCtx& t) {
      for (;;) {
        void* p = pool.malloc(t, 64);
        if (p == nullptr) break;
        blocks.push_back(p);
      }
    });
    return blocks;
  };
  const auto blocks_a = fill(a);
  const auto blocks_b = fill(b);
  ASSERT_GT(blocks_a.size(), 0u);
  EXPECT_EQ(blocks_a.size(), blocks_b.size());
  EXPECT_EQ(a.exhausted(), 1u);

  // Once carving space is gone only recycled blocks can serve: freeing two
  // blocks buys exactly two more allocations, LIFO order, and the high-water
  // mark never moves again.
  const auto high_water = a.used_bytes();
  dev.launch_n(1, [&](ThreadCtx& t) {
    void* first = blocks_a[0];
    void* second = blocks_a[1];
    EXPECT_EQ(a.free(t, first), alloc_core::ReservePool::FreeResult::kFreed);
    EXPECT_EQ(a.free(t, second), alloc_core::ReservePool::FreeResult::kFreed);
    EXPECT_EQ(a.malloc(t, 64), second);  // LIFO: last freed, first out
    EXPECT_EQ(a.malloc(t, 64), first);
    EXPECT_EQ(a.malloc(t, 64), nullptr);
  });
  EXPECT_EQ(a.used_bytes(), high_water);
  EXPECT_EQ(a.exhausted(), 2u);
}

TEST(ReservePool, DoubleInvalidAndOversizedFreesAreWellDefined) {
  Device dev(1u << 20, GpuConfig{.num_sms = 1});
  std::vector<std::byte> slab(64 * 1024);
  alloc_core::ReservePool pool(slab.data(), slab.size());

  dev.launch_n(1, [&](ThreadCtx& t) {
    void* p = pool.malloc(t, 128);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(pool.free(t, p), alloc_core::ReservePool::FreeResult::kFreed);
    EXPECT_EQ(pool.free(t, p),
              alloc_core::ReservePool::FreeResult::kDoubleFree);
    // In range but not a block start: rejected, never interpreted.
    EXPECT_EQ(pool.free(t, static_cast<std::byte*>(p) + 8),
              alloc_core::ReservePool::FreeResult::kInvalid);
    // Above the class ladder: the reserve is a ration, not a second heap.
    EXPECT_EQ(pool.malloc(t, 1u << 20), nullptr);
  });
  EXPECT_EQ(pool.double_frees(), 1u);
  EXPECT_EQ(pool.invalid_frees(), 1u);
  EXPECT_EQ(pool.rejected_large(), 1u);
  const auto audit = pool.audit();
  EXPECT_TRUE(audit.supported);
  EXPECT_TRUE(audit.ok) << audit.detail;
}

TEST(ResilientManager, NullAndReserveDoubleFreesNeverReachTheInner) {
  Device dev(8u << 20, GpuConfig{.num_sms = 1});
  FlakyManager* flaky = nullptr;
  alloc_core::ResilientManager mgr(
      dev, 4u << 20,
      [&](gpu::Device&, std::size_t) {
        auto inner = std::make_unique<FlakyManager>();
        flaky = inner.get();
        return inner;
      },
      core::ResilienceSpec{.retries = 0});

  flaky->fail = true;  // every alloc lands in the reserve pool
  dev.launch_n(1, [&](ThreadCtx& t) {
    mgr.free(t, nullptr);  // well-defined no-op, counted nowhere
    void* p = mgr.malloc(t, 64);
    ASSERT_NE(p, nullptr);
    ASSERT_TRUE(mgr.reserve().owns(p));
    mgr.free(t, p);
    mgr.free(t, p);  // double free on a reserve pointer: absorbed
    mgr.free(t, nullptr);
  });

  const auto rep = mgr.report();
  EXPECT_EQ(rep.fallback_allocs, 1u);
  EXPECT_EQ(rep.fallback_frees, 1u);
  EXPECT_EQ(rep.reserve_double_frees, 1u);
  // The inner manager never saw the reserve pointer or the nullptrs.
  EXPECT_EQ(flaky->frees.load(), 0u);
  const auto audit = mgr.audit();
  EXPECT_TRUE(audit.supported);
  EXPECT_TRUE(audit.ok) << audit.detail;
}

// ---- minimizer convergence -----------------------------------------------

/// Synthetic failing trace: `total` mallocs across two kernels with one
/// poison request (a unique size) buried at `poison_at`.
trace::Trace poisoned_trace(std::uint64_t total, std::uint64_t poison_at,
                            std::uint64_t poison_size) {
  trace::Trace t;
  t.header.heap_bytes = 1u << 20;
  t.header.arena_bytes = 2u << 20;
  t.header.num_sms = 1;
  t.header.warp_size = 32;
  t.header.set_allocator("synthetic");

  std::uint64_t seq = 0;
  std::uint64_t off = 4096;
  auto marker = [&](trace::EventKind kind, std::uint64_t size) {
    trace::TraceEvent ev;
    ev.seq = seq++;
    ev.size = size;
    ev.kernel_seq = 1;
    ev.kind = static_cast<std::uint8_t>(kind);
    t.events.push_back(ev);
  };
  marker(trace::EventKind::kKernelBegin, (std::uint64_t{1} << 32) | 32);
  for (std::uint64_t i = 0; i < total; ++i) {
    trace::TraceEvent ev;
    ev.seq = seq++;
    ev.size = i == poison_at ? poison_size : 64;
    ev.offset = off;
    off += 128;
    ev.thread_rank = static_cast<std::uint32_t>(i % 32);
    ev.kernel_seq = 1;
    ev.lane_op = static_cast<std::uint32_t>(i / 32);
    ev.kind = static_cast<std::uint8_t>(trace::EventKind::kMalloc);
    t.events.push_back(ev);
  }
  marker(trace::EventKind::kKernelEnd, 0);
  t.header.event_count = t.events.size();
  t.header.kernel_launches = 1;
  return t;
}

TEST(TraceMinimizer, ConvergesToThePoisonOpUnderASyntheticOracle) {
  constexpr std::uint64_t kPoisonSize = 13579;
  const auto input = poisoned_trace(256, 170, kPoisonSize);

  unsigned probes_seen = 0;
  const trace::VerdictProbe oracle = [&](const trace::Trace& cand) {
    ++probes_seen;
    for (const auto& ev : cand.events) {
      if (trace::is_alloc_event(ev.event_kind()) && ev.size == kPoisonSize) {
        return core::Verdict::kOom;
      }
    }
    return core::Verdict::kOk;
  };

  const auto r = trace::minimize_trace(input, core::Verdict::kOom, oracle);
  EXPECT_TRUE(r.reproduced);
  EXPECT_TRUE(r.reduced);
  EXPECT_EQ(r.original_ops, 256u);
  // Binary prefix search + greedy front drop should isolate the single
  // poison op (a loose bound guards against pathological convergence).
  EXPECT_LE(r.minimized_ops, 8u);
  EXPECT_GE(r.minimized_ops, 1u);
  EXPECT_LE(r.probes, trace::MinimizeOptions{}.max_probes);
  EXPECT_EQ(r.probes, probes_seen);

  // The minimized trace still reproduces and keeps its kernel markers.
  EXPECT_EQ(oracle(r.trace), core::Verdict::kOom);
  bool has_begin = false;
  bool has_end = false;
  for (const auto& ev : r.trace.events) {
    has_begin |= ev.event_kind() == trace::EventKind::kKernelBegin;
    has_end |= ev.event_kind() == trace::EventKind::kKernelEnd;
  }
  EXPECT_TRUE(has_begin);
  EXPECT_TRUE(has_end);
}

TEST(TraceMinimizer, FlakyInputReturnsUnreproduced) {
  const auto input = poisoned_trace(64, 10, 13579);
  // An oracle that never matches: the input itself cannot reproduce.
  const trace::VerdictProbe oracle = [](const trace::Trace&) {
    return core::Verdict::kOk;
  };
  const auto r = trace::minimize_trace(input, core::Verdict::kOom, oracle);
  EXPECT_FALSE(r.reproduced);
  EXPECT_FALSE(r.reduced);
  EXPECT_EQ(r.trace.events.size(), input.events.size());
}

}  // namespace
}  // namespace gms
