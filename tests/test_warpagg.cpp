// Adaptive warp-aggregation policy tests (DESIGN.md §12): the switching
// behaviour of alloc_core::WarpAggregator that test_stack_composition's
// structural checks defer here. A deterministic bump-allocator stub with a
// host-settable instrumented cost per call stands in for the inner manager,
// so each test dials contention ("storm-grade" vs "calm") precisely instead
// of hoping a real allocator misbehaves on cue:
//
//  * spike arming — one storm-grade sample flips a site to the aggregated
//    path; calm traffic never does, at any SM count;
//  * hysteresis — hot-then-cold traffic produces exactly one enter and one
//    probe-driven exit, never a flap back in;
//  * determinism — identical runs yield identical mode-switch sequences,
//    identical reports, and byte-identical canonical replay digests, with
//    aggregation markers provably outside the digest;
//  * header-free slabs — bulk-free inners (the FDGMalloc shape) see zero
//    per-pointer frees and non-overlapping, intact lane spans;
//  * mixed epochs — pointers carved in an aggregated epoch survive the exit
//    and free correctly alongside passthrough pointers allocated after it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "alloc_core/warp_aggregator.h"
#include "core/memory_manager.h"
#include "core/registry.h"
#include "core/stack_builder.h"
#include "core/warpagg.h"
#include "gpu/device.h"
#include "trace/trace_event.h"
#include "trace/trace_format.h"
#include "trace/trace_recorder.h"

namespace gms {
namespace {

using alloc_core::WarpAggregator;
using core::WarpAggSpec;
using gpu::Device;
using gpu::GpuConfig;
using gpu::ThreadCtx;
using trace::EventKind;

struct RegisterAllocators {
  RegisterAllocators() { core::register_all_allocators(); }
};
const RegisterAllocators register_allocators;

/// Deterministic bump allocator over the device arena with a host-settable
/// per-call cost: `work` instrumented atomic loads per malloc, so a sampled
/// per-SM counter delta across one call reads ~`work` exactly. The bump
/// cursor deliberately uses std::atomic (NOT ctx.atomic_*) — the stub's own
/// bookkeeping must stay invisible to the cost signal under test. Never
/// reuses memory; tracks every pointer handed out so tests can assert the
/// aggregator only ever returns what it was given (no slab payloads, no
/// double frees).
class BumpStub final : public core::MemoryManager {
 public:
  BumpStub(gpu::Device& dev, core::AllocatorTraits t)
      : traits_(t), base_(dev.arena().data()), cap_(dev.arena().size()) {
    traits_.name = "BumpStub";
  }

  [[nodiscard]] const core::AllocatorTraits& traits() const override {
    return traits_;
  }

  [[nodiscard]] void* malloc(ThreadCtx& ctx, std::size_t size) override {
    const std::uint32_t spin = work_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < spin; ++i) {
      (void)ctx.atomic_load(&contended_word_);
    }
    const std::size_t sz = (size + 15) & ~std::size_t{15};
    const std::size_t off = cursor_.fetch_add(sz, std::memory_order_relaxed);
    if (off + sz > cap_) return nullptr;
    void* p = base_ + off;
    std::lock_guard lock(mu_);
    outstanding_[p] = sz;
    return p;
  }

  void free(ThreadCtx&, void* p) override {
    if (p == nullptr) return;
    free_calls_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(mu_);
    if (outstanding_.erase(p) == 0) bad_free_ = true;
  }

  void warp_free_all(ThreadCtx&) override {
    warp_free_all_calls_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Host-side only (between launches): per-call instrumented cost.
  void set_work(std::uint32_t w) { work_.store(w, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t free_calls() const { return free_calls_.load(); }
  [[nodiscard]] std::uint64_t warp_free_all_calls() const {
    return warp_free_all_calls_.load();
  }
  /// True iff free() ever saw a pointer this stub did not hand out (a slab
  /// payload leaking through, or a double free).
  [[nodiscard]] bool saw_bad_free() const {
    std::lock_guard lock(mu_);
    return bad_free_;
  }
  /// True iff `p` is a live allocation handed out by this stub directly
  /// (slab payloads carved by the aggregator are NOT in here).
  [[nodiscard]] bool owns(const void* p) const {
    std::lock_guard lock(mu_);
    return outstanding_.contains(const_cast<void*>(p));
  }

 private:
  core::AllocatorTraits traits_;
  std::byte* base_;
  std::size_t cap_;
  std::atomic<std::uint32_t> work_{8};
  std::uint64_t contended_word_ = 0;
  std::atomic<std::size_t> cursor_{0};
  std::atomic<std::uint64_t> free_calls_{0};
  std::atomic<std::uint64_t> warp_free_all_calls_{0};
  mutable std::mutex mu_;
  std::map<void*, std::size_t> outstanding_;
  bool bad_free_ = false;
};

/// Storm-grade per-call cost: above enter_cost * kArmSpikeFactor (96 * 16 =
/// 1536 at defaults) and safely under the 4096 sample clamp.
constexpr std::uint32_t kStormWork = 2500;
/// Calm per-call cost: an order of magnitude under the arming spike and
/// with an EMA fixpoint (8 << 4 = 128) below exit_cost << 4 = 1280.
constexpr std::uint32_t kCalmWork = 8;

/// MarkerSink fake recording the (kind, size-class) marker sequence.
/// Reserves upfront: mark() runs on simulated lanes and must not take locks
/// the tests then race against (all recording tests run at 1 SM = 1 worker).
struct RecordingSink final : trace::MarkerSink {
  std::vector<std::pair<EventKind, std::uint64_t>> events;
  RecordingSink() { events.reserve(4096); }
  void mark(ThreadCtx&, EventKind kind, std::uint64_t size,
            std::uint64_t) override {
    events.emplace_back(kind, size);
  }
};

/// Fast-switching spec used by every stub test: small dwell/sample/probe so
/// enter and exit land within a few thousand calls, 16 KiB slab window so
/// refills stay small against the test arenas.
WarpAggSpec test_spec() {
  return WarpAggSpec{.enter_cost = 96,
                     .exit_cost = 80,
                     .dwell = 4,
                     .sample_every = 2,
                     .probe_every = 8,
                     .slab_kb = 16};
}

core::AllocatorTraits stub_traits() {
  core::AllocatorTraits t;
  t.general_purpose = true;
  t.max_direct_size = 8u << 20;  // refill requests always served directly
  return t;
}

/// Builds an aggregator over a fresh BumpStub; returns the stub raw pointer
/// (owned by the aggregator) for post-run inspection.
std::pair<std::unique_ptr<WarpAggregator>, BumpStub*> make_stack(
    Device& dev, const WarpAggSpec& spec, core::AllocatorTraits t) {
  auto stub = std::make_unique<BumpStub>(dev, t);
  BumpStub* raw = stub.get();
  auto agg = std::make_unique<WarpAggregator>(std::move(stub), spec, dev);
  return {std::move(agg), raw};
}

/// One malloc/free churn launch: every lane allocates `size` bytes
/// `rounds` times, writes a rank pattern, frees. Convergent (all 32 lanes
/// together) — the aggregated path's canonical shape, which `warp` pins by
/// allocating through warp_malloc.
void churn(Device& dev, core::MemoryManager& mgr, unsigned rounds,
           std::size_t size = 64, bool warp = false) {
  dev.launch(1, 256, [&mgr, rounds, size, warp](ThreadCtx& ctx) {
    for (unsigned r = 0; r < rounds; ++r) {
      void* p = warp ? mgr.warp_malloc(ctx, size) : mgr.malloc(ctx, size);
      if (p != nullptr) {
        *static_cast<std::uint32_t*>(p) = ctx.thread_rank();
        mgr.free(ctx, p);
      }
    }
  });
}

/// The ConfigError kind a stack spec is rejected with.
core::ConfigError::Kind rejection(const std::string& spec) {
  try {
    (void)core::StackSpec::parse(spec);
  } catch (const core::ConfigError& e) {
    return e.kind();
  }
  ADD_FAILURE() << spec << " was accepted";
  return core::ConfigError::Kind::kSyntax;
}

TEST(WarpAggSpecTest, ParseRejectsUnknownKeysAndBadValues) {
  using Kind = core::ConfigError::Kind;
  EXPECT_EQ(rejection("warpagg{bogus}"), Kind::kSyntax);
  EXPECT_EQ(rejection("warpagg{policy=never}"), Kind::kUnknownKey);
  EXPECT_EQ(rejection("warpagg{vibes=9}>Halloc"), Kind::kUnknownKey);
  // Hysteresis requires exit < enter.
  EXPECT_EQ(rejection("warpagg{enter=96,exit=96}"), Kind::kOutOfRange);
  EXPECT_EQ(rejection("warpagg{exit=96}"), Kind::kOutOfRange);
  // Slab windows are power-of-two KiB within [4, 262144].
  EXPECT_EQ(rejection("warpagg{slab=48}"), Kind::kNotPow2);
  EXPECT_EQ(rejection("warpagg{slab=2}"), Kind::kOutOfRange);
  EXPECT_EQ(rejection("warpagg{sample=0}"), Kind::kOutOfRange);
  EXPECT_EQ(rejection("warpagg{probe=0}"), Kind::kOutOfRange);
  // u32 knobs are bounded at their width: 2^32 + 97 does not wrap to 97.
  EXPECT_EQ(rejection("warpagg{enter=4294967393}"), Kind::kOutOfRange);
}

TEST(WarpAggSpecTest, StageTokenRoundTrips) {
  const std::string text =
      "warpagg{enter=96,exit=80,dwell=4,sample=2,probe=8,slab=16}>"
      "ScatterAlloc";
  const auto spec = core::StackSpec::parse(text);
  EXPECT_EQ(spec.to_string(), text);
  ASSERT_EQ(spec.stages.size(), 1u);
  const auto& schema = WarpAggSpec::config_schema();
  const WarpAggSpec a = schema.parse(spec.stages[0].config, {});
  const WarpAggSpec b = test_spec();
  EXPECT_EQ(schema.serialize(a), schema.serialize(b));
  EXPECT_EQ(a.enter_cost, 96u);
  EXPECT_EQ(a.exit_cost, 80u);
  // The full serialization parses back to itself.
  EXPECT_EQ(schema.serialize(schema.parse(schema.serialize(a), {})),
            schema.serialize(a));
}

// One storm-grade sampled call arms the SM and the site switches to the
// aggregated path; groups actually combine.
TEST(WarpAggAdaptiveTest, StormSpikeArmsAndAggregates) {
  Device dev(16u << 20, GpuConfig{.num_sms = 1});
  auto [agg, stub] = make_stack(dev, test_spec(), stub_traits());
  stub->set_work(kStormWork);
  churn(dev, *agg, 16);
  const auto rep = agg->report();
  EXPECT_GE(rep.switches_to_agg, 1u);
  EXPECT_GT(rep.groups_combined, 0u);
  EXPECT_GT(rep.lanes_served, rep.groups_combined);
  EXPECT_GE(rep.slab_refills, 1u);
  EXPECT_FALSE(stub->saw_bad_free());
}

// Calm traffic — two orders of magnitude of headroom under the arming
// spike — never aggregates, at any SM count: the "+W" stack of a fast
// manager must be byte-for-byte the passthrough path.
TEST(WarpAggAdaptiveTest, CalmManagerNeverArms) {
  Device dev(32u << 20, GpuConfig{.num_sms = 2});
  auto [agg, stub] = make_stack(dev, test_spec(), stub_traits());
  stub->set_work(kCalmWork);
  for (unsigned i = 0; i < 4; ++i) churn(dev, *agg, 8);
  const auto rep = agg->report();
  EXPECT_EQ(rep.switches_to_agg, 0u);
  EXPECT_EQ(rep.groups_combined, 0u);
  EXPECT_EQ(rep.slab_refills, 0u);
  EXPECT_GT(rep.passthrough_calls, 0u);
  EXPECT_FALSE(stub->saw_bad_free());
}

// Hot-then-cold traffic: exactly one enter, one probe-driven exit once the
// EMA drains below exit_cost, and NO re-entry — the exit drops the arming
// latch, and calm traffic can never set it again. This is the no-flap
// contract: hysteresis is structural (fresh spike required), not a margin.
TEST(WarpAggAdaptiveTest, HysteresisEntersOnceExitsOnceNeverFlaps) {
  Device dev(64u << 20, GpuConfig{.num_sms = 1});
  RecordingSink rec;
  auto [agg, stub] = make_stack(dev, test_spec(), stub_traits());
  agg->set_marker_sink(&rec);

  stub->set_work(kStormWork);
  churn(dev, *agg, 8);  // 2048 calls: arm + enter, slab serving
  stub->set_work(kCalmWork);
  churn(dev, *agg, 80);  // 20480 calls: probes drain the EMA, exit, stay out

  const auto rep = agg->report();
  EXPECT_EQ(rep.switches_to_agg, 1u);
  EXPECT_EQ(rep.switches_to_pass, 1u);
  EXPECT_GT(rep.probes, 0u);
  // The sink also sees kAggSlabRefill markers; the switch sequence is the
  // hysteresis contract.
  std::vector<std::pair<EventKind, std::uint64_t>> switches;
  for (const auto& e : rec.events) {
    if (e.first != EventKind::kAggSlabRefill) switches.push_back(e);
  }
  ASSERT_EQ(switches.size(), 2u);
  EXPECT_EQ(switches[0].first, EventKind::kAggModeAggregated);
  EXPECT_EQ(switches[1].first, EventKind::kAggModePassthrough);
  EXPECT_EQ(switches[0].second, switches[1].second);  // same site
  EXPECT_FALSE(stub->saw_bad_free());
}

// Same seed (same device geometry, same stub schedule) => same mode-switch
// sequence and same aggregate counters. The policy reads only deterministic
// per-SM instrumentation counters, never wall clock, so two runs of one
// scenario cannot diverge.
TEST(WarpAggAdaptiveTest, ModeSwitchSequenceIsDeterministic) {
  auto run = [](std::vector<std::pair<EventKind, std::uint64_t>>& events,
                std::string& report) {
    Device dev(64u << 20, GpuConfig{.num_sms = 1});
    RecordingSink rec;
    auto [agg, stub] = make_stack(dev, test_spec(), stub_traits());
    agg->set_marker_sink(&rec);
    stub->set_work(kStormWork);
    churn(dev, *agg, 8, 32);
    churn(dev, *agg, 8, 128);
    stub->set_work(kCalmWork);
    churn(dev, *agg, 64, 32);
    churn(dev, *agg, 64, 128);
    events = rec.events;
    report = agg->report().to_string();
  };
  std::vector<std::pair<EventKind, std::uint64_t>> ev1, ev2;
  std::string rep1, rep2;
  run(ev1, rep1);
  run(ev2, rep2);
  EXPECT_FALSE(ev1.empty());
  EXPECT_EQ(ev1, ev2);
  EXPECT_EQ(rep1, rep2);
}

// Full-stack determinism: two identical traced runs of an aggregating stack
// produce byte-identical canonical replay digests, and the aggregation
// marker events (kinds 32-34) are present in the stream but provably
// OUTSIDE the digest — stripping them changes nothing.
TEST(WarpAggAdaptiveTest, ReplayDigestIdenticalAndMarkersOutsideDigest) {
  auto run = [](std::vector<trace::TraceEvent>& events) {
    Device dev(72u << 20, GpuConfig{.num_sms = 1});
    auto stack =
        core::StackBuilder(dev).build("trace>warpagg>ScatterAlloc", 64u << 20);
    ASSERT_NE(stack.recorder, nullptr);
    stack.recorder->set_enabled(true);
    churn(dev, *stack.manager, 8, 64, /*warp=*/true);
    events = stack.recorder->drain();
  };
  std::vector<trace::TraceEvent> ev1, ev2;
  run(ev1);
  run(ev2);

  const auto is_marker = [](const trace::TraceEvent& e) {
    return trace::is_aggregation_event(e.event_kind());
  };
  EXPECT_GT(std::count_if(ev1.begin(), ev1.end(), is_marker), 0);

  const std::uint64_t d1 = trace::canonical_digest(ev1);
  const std::uint64_t d2 = trace::canonical_digest(ev2);
  EXPECT_EQ(d1, d2);

  std::vector<trace::TraceEvent> stripped = ev1;
  std::erase_if(stripped, is_marker);
  EXPECT_LT(stripped.size(), ev1.size());
  EXPECT_EQ(trace::canonical_digest(stripped), d1);
}

// Header-free bulk-free round-trip (the FDGMalloc shape): with a
// bulk_free_capable inner and no individual free, slab payloads carry no
// refcount, per-pointer frees never reach the inner manager, lane spans
// don't overlap and survive intact until warp_free_all sweeps wholesale.
TEST(WarpAggBulkFreeTest, HeaderFreeSlabsRoundTripWithoutPerPointerFrees) {
  Device dev(16u << 20, GpuConfig{.num_sms = 1});
  core::AllocatorTraits t = stub_traits();
  t.bulk_free_capable = true;
  t.individual_free = false;
  auto [agg, stub] = make_stack(dev, WarpAggSpec{.slab_kb = 16}, t);

  constexpr unsigned kThreads = 256;
  std::vector<void*> ptrs(kThreads, nullptr);
  std::vector<std::size_t> sizes(kThreads, 0);
  dev.launch(1, kThreads, [&](ThreadCtx& ctx) {
    const unsigned r = ctx.thread_rank();
    sizes[r] = 32 + (r % 4) * 32;
    void* p = agg->warp_malloc(ctx, sizes[r]);
    ASSERT_NE(p, nullptr);
    *static_cast<std::uint32_t*>(p) = r;
    ptrs[r] = p;
  });

  // Lane spans are disjoint while all live.
  std::vector<std::pair<const std::byte*, const std::byte*>> spans;
  for (unsigned r = 0; r < kThreads; ++r) {
    const auto* b = static_cast<const std::byte*>(ptrs[r]);
    spans.emplace_back(b, b + sizes[r]);
  }
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].second, spans[i].first) << "overlapping spans";
  }

  // Patterns intact; reclaim strictly via warp_free_all — the stack's
  // traits advertise individual_free = false, so a conforming application
  // never calls free() per pointer (and the slabs carry no refcount that
  // per-pointer frees could maintain).
  dev.launch(1, kThreads, [&](ThreadCtx& ctx) {
    const unsigned r = ctx.thread_rank();
    EXPECT_EQ(*static_cast<std::uint32_t*>(ptrs[r]), r);
    agg->warp_free_all(ctx);
  });

  const auto rep = agg->report();
  EXPECT_GE(rep.slab_refills, 1u);
  EXPECT_GT(rep.groups_combined, 0u);
  EXPECT_EQ(stub->free_calls(), 0u) << "bulk-free inner saw a per-ptr free";
  EXPECT_GT(stub->warp_free_all_calls(), 0u) << "sweep was not forwarded";
  EXPECT_FALSE(stub->saw_bad_free());
}

// Pointers carved during an aggregated epoch stay valid and freeable after
// the site exits back to passthrough, interleaved with passthrough pointers
// allocated after the exit: the masked slab lookup routes each pointer to
// its owner (slab refcount vs inner free) regardless of the current mode.
TEST(WarpAggAdaptiveTest, MixedEpochPointersFreeCorrectlyAfterExit) {
  Device dev(64u << 20, GpuConfig{.num_sms = 1});
  auto [agg, stub] = make_stack(dev, test_spec(), stub_traits());

  constexpr unsigned kThreads = 256;
  std::vector<void*> epoch_a(kThreads, nullptr);  // aggregated-epoch ptrs
  std::vector<void*> epoch_c(kThreads, nullptr);  // post-exit passthrough

  stub->set_work(kStormWork);
  churn(dev, *agg, 8);  // drive arm + enter
  ASSERT_GE(agg->report().switches_to_agg, 1u);
  dev.launch(1, kThreads, [&](ThreadCtx& ctx) {  // hold one ptr per lane
    const unsigned r = ctx.thread_rank();
    epoch_a[r] = agg->malloc(ctx, 64);
    ASSERT_NE(epoch_a[r], nullptr);
    *static_cast<std::uint32_t*>(epoch_a[r]) = r;
  });
  // Most held pointers were slab-carved (not handed out by the stub);
  // probe rounds make a few per-lane, which is the point of "mixed".
  const auto slab_served = std::count_if(
      epoch_a.begin(), epoch_a.end(),
      [&](const void* p) { return !stub->owns(p); });
  EXPECT_GT(slab_served, 0);

  stub->set_work(kCalmWork);
  churn(dev, *agg, 80);  // drain + exit
  ASSERT_GE(agg->report().switches_to_pass, 1u);

  dev.launch(1, kThreads, [&](ThreadCtx& ctx) {  // passthrough epoch
    const unsigned r = ctx.thread_rank();
    epoch_c[r] = agg->malloc(ctx, 64);
    ASSERT_NE(epoch_c[r], nullptr);
    *static_cast<std::uint32_t*>(epoch_c[r]) = r + kThreads;
  });
  for (unsigned r = 0; r < kThreads; ++r) {
    EXPECT_TRUE(stub->owns(epoch_c[r])) << "post-exit alloc not passthrough";
  }

  // Free both epochs interleaved; patterns must have survived the churn.
  dev.launch(1, kThreads, [&](ThreadCtx& ctx) {
    const unsigned r = ctx.thread_rank();
    EXPECT_EQ(*static_cast<std::uint32_t*>(epoch_a[r]), r);
    EXPECT_EQ(*static_cast<std::uint32_t*>(epoch_c[r]), r + kThreads);
    agg->free(ctx, epoch_a[r]);
    agg->free(ctx, epoch_c[r]);
  });
  EXPECT_FALSE(stub->saw_bad_free())
      << "a slab payload or double free reached the inner manager";
}

}  // namespace
}  // namespace gms
