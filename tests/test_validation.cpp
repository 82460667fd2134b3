// Tests for the hardened-harness decorators: ValidatingManager (redzones,
// live-pointer table, structured error sink) and FaultInjector (deterministic
// OOM schedules). Two angles: negative tests prove each corruption class is
// detected and attributed (allocator, lane, size) without crashing, and a
// seeded property test churns every general-purpose allocator under fault
// injection and expects a clean report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/error_sink.h"
#include "core/fault_inject.h"
#include "core/registry.h"
#include "core/utils.h"
#include "core/validating_manager.h"
#include "gpu/device.h"

namespace gms {
namespace {

using core::ErrorKind;
using core::FaultInjector;
using core::FaultSpec;
using core::Registry;
using core::ValidatingManager;
using gpu::Device;
using gpu::GpuConfig;
using gpu::ThreadCtx;

constexpr std::size_t kArenaBytes = 160u << 20;
constexpr std::size_t kHeapBytes = 128u << 20;

Device& dev() {
  static Device device(kArenaBytes, GpuConfig{.num_sms = 4});
  return device;
}

/// A validator wrapped directly around a registered inner factory (the twin
/// registration path is covered by test_registry; here we want the concrete
/// type to reach drain_report / live_count).
std::unique_ptr<ValidatingManager> make_validated(Device& d, std::size_t heap,
                                                  const std::string& inner) {
  core::register_all_allocators();
  const auto* entry = Registry::instance().find(inner);
  EXPECT_NE(entry, nullptr) << inner;
  d.arena().clear();
  return std::make_unique<ValidatingManager>(d, heap, entry->factory);
}

// ---- negative paths: every corruption class is caught, attributed, and
// ---- contained (never forwarded into the inner allocator) -----------------
//
// The inner manager is the Atomic bump allocator: it never recycles memory,
// so freed headers stay untouched and every detection is deterministic.

TEST(ValidatingManagerNegative, DoubleFreeDetectedAndContained) {
  Device small(16u << 20, GpuConfig{.num_sms = 2});
  auto mgr = make_validated(small, 8u << 20, "Atomic");
  constexpr std::size_t kSize = 96;
  small.launch(1, 32, [&](ThreadCtx& t) {
    void* p = mgr->malloc(t, kSize);
    mgr->free(t, p);
    mgr->free(t, p);  // must be reported, not forwarded into the inner heap
  });
  const auto report = mgr->drain_report();
  EXPECT_EQ(report.count(ErrorKind::kDoubleFree), 32u);
  EXPECT_EQ(report.total(), 32u) << report.to_string();
  EXPECT_EQ(report.allocator, "Atomic");
  ASSERT_FALSE(report.records.empty());
  for (const auto& r : report.records) {
    EXPECT_EQ(r.kind, ErrorKind::kDoubleFree);
    EXPECT_EQ(r.size, kSize);   // attributed to the offending allocation...
    EXPECT_LT(r.thread_rank, 32u);  // ...and to the lane that freed it
  }
  EXPECT_EQ(mgr->live_count(), 0u);
}

TEST(ValidatingManagerNegative, RedzoneOverwriteDetectedOnFree) {
  Device small(16u << 20, GpuConfig{.num_sms = 2});
  auto mgr = make_validated(small, 8u << 20, "Atomic");
  constexpr std::size_t kSize = 64;
  small.launch(1, 2, [&](ThreadCtx& t) {
    auto* p = static_cast<std::uint8_t*>(mgr->malloc(t, kSize));
    if (t.lane_id() == 0) {
      p[kSize] = 0xAB;  // first byte past the payload: rear canary
    } else {
      p[-1] ^= 0xFF;  // last byte before the payload: front canary
    }
    mgr->free(t, p);
  });
  const auto report = mgr->drain_report();
  EXPECT_EQ(report.count(ErrorKind::kRedzone), 2u) << report.to_string();
  ASSERT_FALSE(report.records.empty());
  for (const auto& r : report.records) {
    EXPECT_EQ(r.kind, ErrorKind::kRedzone);
    EXPECT_EQ(r.size, kSize);
    EXPECT_LT(r.thread_rank, 2u);
  }
}

TEST(ValidatingManagerNegative, LeaksReportedByEndOfRunScan) {
  Device small(16u << 20, GpuConfig{.num_sms = 2});
  auto mgr = make_validated(small, 8u << 20, "Atomic");
  constexpr std::size_t kSize = 128;
  small.launch(1, 8, [&](ThreadCtx& t) {
    (void)mgr->malloc(t, kSize);  // never freed
  });
  EXPECT_EQ(mgr->live_count(), 8u);
  const auto report = mgr->drain_report(/*leaks_are_errors=*/true);
  EXPECT_EQ(report.count(ErrorKind::kLeak), 8u) << report.to_string();
  EXPECT_EQ(report.live_allocations, 8u);
  for (const auto& r : report.records) {
    EXPECT_EQ(r.kind, ErrorKind::kLeak);
    EXPECT_EQ(r.size, kSize);
  }
  // A mere snapshot without leak-flagging must stay clean.
  const auto relaxed = mgr->drain_report(/*leaks_are_errors=*/false);
  EXPECT_TRUE(relaxed.clean()) << relaxed.to_string();
  EXPECT_EQ(relaxed.live_allocations, 8u);
}

TEST(ValidatingManagerNegative, ForeignAndMisalignedFreesContained) {
  Device small(16u << 20, GpuConfig{.num_sms = 2});
  auto mgr = make_validated(small, 8u << 20, "Atomic");
  static std::uint32_t host_word = 0;
  small.launch(1, 1, [&](ThreadCtx& t) {
    auto* p = static_cast<std::uint8_t*>(mgr->malloc(t, 64));
    std::memset(p, 0, 64);
    mgr->free(t, &host_word);  // never any manager's: outside the heap
    // Inside the arena but before the first possible payload start.
    mgr->free(t, small.arena().data() + 8);
    mgr->free(t, p + 3);   // not 8-aligned
    mgr->free(t, p + 40);  // aligned payload interior: no header magic there
    mgr->free(t, p);       // the genuine free must still succeed
  });
  const auto report = mgr->drain_report(/*leaks_are_errors=*/true);
  EXPECT_EQ(report.count(ErrorKind::kForeignFree), 2u) << report.to_string();
  EXPECT_EQ(report.count(ErrorKind::kUnalignedFree), 2u) << report.to_string();
  EXPECT_EQ(report.count(ErrorKind::kLeak), 0u);
  EXPECT_EQ(mgr->live_count(), 0u);
}

// ---- fault injector: deterministic schedules ------------------------------

std::unique_ptr<core::MemoryManager> make_inner(Device& d,
                                                const std::string& name) {
  core::register_all_allocators();
  return Registry::instance().make(name, d, 8u << 20);
}

TEST(FaultInjector, NthScheduleInjectsExactCount) {
  Device small(16u << 20, GpuConfig{.num_sms = 2});
  FaultInjector inj(make_inner(small, "Atomic"), FaultSpec::parse("nth:4"));
  small.launch_n(256, [&](ThreadCtx& t) {
    for (int i = 0; i < 4; ++i) (void)inj.malloc(t, 16);
  });
  EXPECT_EQ(inj.calls(), 1024u);
  // Exactly every 4th call fails, whatever the thread interleaving.
  EXPECT_EQ(inj.injected_failures(), 256u);
}

TEST(FaultInjector, BudgetScheduleCutsOffAfterAllowance) {
  Device small(16u << 20, GpuConfig{.num_sms = 2});
  FaultInjector inj(make_inner(small, "Atomic"),
                    FaultSpec::parse("budget:4096"));
  small.launch(1, 1, [&](ThreadCtx& t) {
    for (int i = 0; i < 512; ++i) (void)inj.malloc(t, 16);
  });
  // 256 x 16 B exhaust the budget; every later call is injected.
  EXPECT_EQ(inj.calls(), 512u);
  EXPECT_EQ(inj.injected_failures(), 256u);
}

TEST(FaultInjector, ProbScheduleIsSeedReproducible) {
  auto run = [] {
    Device small(16u << 20, GpuConfig{.num_sms = 2});
    FaultInjector inj(make_inner(small, "Atomic"),
                      FaultSpec::parse("prob:0.25:42"));
    small.launch_n(256, [&](ThreadCtx& t) {
      for (int i = 0; i < 8; ++i) (void)inj.malloc(t, 16);
    });
    return inj.injected_failures();
  };
  const auto first = run();
  EXPECT_GT(first, 0u);
  EXPECT_LT(first, 2048u);
  // The decision is a pure hash of (seed, global call index): a rerun — even
  // with a different interleaving — injects the identical count.
  EXPECT_EQ(run(), first);
}

TEST(FaultInjector, ProbScheduleIsInterleavingInvariant) {
  // prob:P:SEED decisions are a pure hash of (seed, global call index), so
  // the injected count must be identical however the same number of calls is
  // carved up across SMs, blocks, and per-thread loops — the property that
  // makes a fault-driven failure replayable on any host.
  auto run = [](unsigned num_sms, unsigned grid, unsigned block,
                unsigned per_thread) {
    Device small(16u << 20, GpuConfig{.num_sms = num_sms});
    FaultInjector inj(make_inner(small, "Atomic"),
                      FaultSpec::parse("prob:0.2:1337"));
    small.launch(grid, block, [&](ThreadCtx& t) {
      for (unsigned i = 0; i < per_thread; ++i) (void)inj.malloc(t, 16);
    });
    EXPECT_EQ(inj.calls(), std::uint64_t{grid} * block * per_thread);
    return inj.injected_failures();
  };
  // 4096 calls each, three very different interleavings.
  const auto single_sm = run(1, 4, 256, 4);
  const auto two_sms = run(2, 16, 64, 4);
  const auto eight_sms = run(8, 64, 32, 2);
  EXPECT_GT(single_sm, 0u);
  EXPECT_LT(single_sm, 4096u);
  EXPECT_EQ(single_sm, two_sms);
  EXPECT_EQ(two_sms, eight_sms);
}

TEST(FaultSpec, ParsesAndRoundTrips) {
  const auto nth = FaultSpec::parse("nth:7,delay=3");
  EXPECT_EQ(nth.mode, FaultSpec::Mode::kNth);
  EXPECT_EQ(nth.n, 7u);
  EXPECT_EQ(nth.delay, 3u);
  EXPECT_EQ(nth.to_string(), "nth:7,delay=3");

  const auto prob = FaultSpec::parse("prob:0.25:42");
  EXPECT_EQ(prob.mode, FaultSpec::Mode::kProb);
  EXPECT_DOUBLE_EQ(prob.p, 0.25);
  EXPECT_EQ(prob.seed, 42u);

  const auto budget = FaultSpec::parse("budget:1048576");
  EXPECT_EQ(budget.mode, FaultSpec::Mode::kBudget);
  EXPECT_EQ(budget.budget_bytes, 1048576u);

  EXPECT_EQ(FaultSpec::parse("none").mode, FaultSpec::Mode::kNone);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultSpec::parse("bogus"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("nth:0"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("nth:x"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("prob:1.5"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("prob:-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("budget:"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("nth:4,delayy=2"), std::invalid_argument);
}

TEST(ValidatingManager, CudaRotatingChurnStaysInsideItsHeap) {
  // CUDA's rotating first-fit hint walks its whole 4 KiB region, top unit
  // included, far from exhaustion: 512 live 4,000 B blocks of ~8,000 units.
  // The top units must lie inside the prefix the validator handed CUDA, not
  // in the validator's shadow table behind it (an out-of-heap error and a
  // nullptr).
  constexpr std::size_t kHeap = 64u << 20;
  Device d(kHeap, GpuConfig{.num_sms = 1});
  auto mgr = make_validated(d, kHeap, "CUDA");
  std::vector<void*> live(512, nullptr);
  std::size_t nulls = 0;
  for (int round = 0; round < 64; ++round) {
    d.launch(2, 256, [&](ThreadCtx& t) {
      void*& slot = live[t.thread_rank()];
      mgr->free(t, slot);
      slot = mgr->malloc(t, 4000);
    });
    nulls += static_cast<std::size_t>(std::count(live.begin(), live.end(), nullptr));
  }
  d.launch(2, 256, [&](ThreadCtx& t) { mgr->free(t, live[t.thread_rank()]); });
  EXPECT_EQ(nulls, 0u);
  const auto report = mgr->drain_report(/*leaks_are_errors=*/true);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// ---- property test: every general-purpose allocator survives a seeded
// ---- alloc/free churn under fault injection with a clean validation report

class ValidatedChurnTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ValidatedChurnTest, FaultInjectedChurnStaysClean) {
  core::register_all_allocators();
  auto validated =
      Registry::instance().make(GetParam() + "+V", dev(), kHeapBytes);
  ASSERT_NE(validated, nullptr);
  FaultInjector mgr(std::move(validated), FaultSpec::parse("prob:0.15:1234"));

  std::uint32_t data_errors = 0;
  dev().launch_n(512, [&](ThreadCtx& t) {
    core::SplitMix64 rng(t.thread_rank() * 2654435761u + 99);
    struct Held {
      std::uint8_t* p = nullptr;
      std::size_t size = 0;
    };
    Held held[3];
    for (int it = 0; it < 12; ++it) {
      Held& slot = held[rng.range(0, 2)];
      if (slot.p != nullptr) {
        if (slot.p[0] != static_cast<std::uint8_t>(slot.size) ||
            slot.p[slot.size - 1] !=
                static_cast<std::uint8_t>(slot.size ^ 0x5A)) {
          t.atomic_add(&data_errors, 1u);
        }
        mgr.free(t, slot.p);
        slot = Held{};
      }
      const std::size_t size = rng.range(8, 512);
      auto* p = static_cast<std::uint8_t*>(mgr.malloc(t, size));
      if (p == nullptr) continue;  // injected (or real) OOM is a valid answer
      p[0] = static_cast<std::uint8_t>(size);
      p[size - 1] = static_cast<std::uint8_t>(size ^ 0x5A);
      slot = Held{p, size};
    }
    for (Held& s : held) {
      if (s.p != nullptr) mgr.free(t, s.p);
    }
  });

  EXPECT_EQ(data_errors, 0u);
  EXPECT_GT(mgr.injected_failures(), 0u);
  EXPECT_GT(mgr.calls(), mgr.injected_failures());
  auto* validator = dynamic_cast<ValidatingManager*>(&mgr.inner());
  ASSERT_NE(validator, nullptr);
  const auto report = validator->drain_report(/*leaks_are_errors=*/true);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(validator->live_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllGeneralPurpose, ValidatedChurnTest,
    ::testing::ValuesIn([] {
      core::register_all_allocators();
      return Registry::instance().names(/*general_purpose_only=*/true);
    }()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace gms
