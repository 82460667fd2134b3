// Tests for the hardened-harness decorators: ValidatingManager (redzones,
// shadow and start bitmaps, structured error sink) and FaultInjector
// (deterministic OOM schedules). Two angles: negative tests prove each corruption class is
// detected and attributed (allocator, lane, size) without crashing, and a
// seeded property test churns every general-purpose allocator under fault
// injection and expects a clean report.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/error_sink.h"
#include "core/fault_inject.h"
#include "core/registry.h"
#include "core/stack_builder.h"
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

/// A validator wrapped directly around a registered inner factory (the
/// "+V" stack path is covered by test_stack_composition; here we want the
/// concrete type to reach drain_report / live_count).
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
  return core::StackBuilder(d).build(name, 8u << 20).manager;
}

TEST(FaultInjector, NthScheduleInjectsExactCount) {
  Device small(16u << 20, GpuConfig{.num_sms = 2});
  FaultInjector inj(make_inner(small, "Atomic"), FaultSpec{.mode = FaultSpec::Mode::kNth, .n = 4});
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
                    FaultSpec{.mode = FaultSpec::Mode::kBudget,
                              .budget_bytes = 4096});
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
                      FaultSpec{.mode = FaultSpec::Mode::kProb,
                                .p = 0.25,
                                .seed = 42});
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
                      FaultSpec{.mode = FaultSpec::Mode::kProb,
                                .p = 0.2,
                                .seed = 1337});
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

/// The knobs a "fault{...}" stage token hands the injector, after checking
/// that the token round-trips through the stack grammar.
FaultSpec fault_knobs(const std::string& token) {
  const auto spec = core::StackSpec::parse(token);
  EXPECT_EQ(spec.to_string(), token);
  return FaultSpec::config_schema().parse(spec.stages.at(0).config, {});
}

TEST(FaultSpec, ParsesAndRoundTrips) {
  const auto nth = fault_knobs("fault{mode=nth,n=7}");
  EXPECT_EQ(nth.mode, FaultSpec::Mode::kNth);
  EXPECT_EQ(nth.n, 7u);

  const auto prob = fault_knobs("fault{mode=prob,p=0.25,seed=42}");
  EXPECT_EQ(prob.mode, FaultSpec::Mode::kProb);
  EXPECT_DOUBLE_EQ(prob.p, 0.25);
  EXPECT_EQ(prob.seed, 42u);

  const auto budget = fault_knobs("fault{mode=budget,budget=1048576}");
  EXPECT_EQ(budget.mode, FaultSpec::Mode::kBudget);
  EXPECT_EQ(budget.budget_bytes, 1048576u);

  EXPECT_EQ(fault_knobs("fault{mode=none}").mode, FaultSpec::Mode::kNone);
  EXPECT_EQ(fault_knobs("fault").mode, FaultSpec::Mode::kNone);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  using Kind = core::ConfigError::Kind;
  const auto rejection = [](const std::string& spec) {
    try {
      (void)core::StackSpec::parse(spec);
    } catch (const core::ConfigError& e) {
      return e.kind();
    }
    ADD_FAILURE() << spec << " was accepted";
    return Kind::kSyntax;
  };
  EXPECT_EQ(rejection("fault{mode=bogus}"), Kind::kBadValue);
  EXPECT_EQ(rejection("fault{mode=nth,n=0}"), Kind::kOutOfRange);
  EXPECT_EQ(rejection("fault{mode=nth}"), Kind::kOutOfRange);  // no period
  EXPECT_EQ(rejection("fault{mode=nth,n=x}"), Kind::kBadValue);
  EXPECT_EQ(rejection("fault{mode=prob,p=1.5}"), Kind::kOutOfRange);
  EXPECT_EQ(rejection("fault{mode=prob,p=-0.1}"), Kind::kOutOfRange);
  EXPECT_EQ(rejection("fault{mode=budget,budget=}"), Kind::kSyntax);
  EXPECT_EQ(rejection("fault{mode=nth,n=4,delayy=2}"), Kind::kUnknownKey);
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

TEST(ValidatingManager, ConstructionTouchesNoMetadataPage) {
  // The carve behind the inner heap (the slice's last eighth) reads as zero
  // on a cleared arena, so construction must not write it: the bitmaps cost
  // only the pages a run's blocks cover.
  constexpr std::size_t kHeap = 64u << 20;
  Device d(72u << 20, GpuConfig{.num_sms = 1});
  auto mgr = make_validated(d, kHeap, "ScatterAlloc");
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t first = (kHeap - kHeap / 8 + page - 1) / page * page;
  std::vector<unsigned char> resident((kHeap - first) / page);
  ASSERT_EQ(::mincore(d.arena().data() + first, kHeap - first,
                      resident.data()),
            0);
  EXPECT_EQ(std::count_if(resident.begin(), resident.end(),
                          [](unsigned char v) { return (v & 1) != 0; }),
            0)
      << "of " << resident.size() << " metadata pages";
}

TEST(ValidatingManager, LiveSetHasNoCapacityLimit) {
  // 8,192 live 16 B Atomic blocks on a 1 MiB heap: every one is tracked
  // and reported, in address order.
  Device small(4u << 20, GpuConfig{.num_sms = 2});
  auto mgr = make_validated(small, 1u << 20, "Atomic");
  constexpr std::uint64_t kBlocks = 8192;
  std::uint32_t nulls = 0;
  small.launch_n(kBlocks, [&](ThreadCtx& t) {
    if (mgr->malloc(t, 16) == nullptr) t.atomic_add(&nulls, 1u);
  });
  ASSERT_EQ(nulls, 0u);
  EXPECT_EQ(mgr->live_count(), kBlocks);
  const auto report = mgr->drain_report(/*leaks_are_errors=*/true);
  EXPECT_EQ(report.count(ErrorKind::kLeak), kBlocks) << report.to_string();
  EXPECT_EQ(report.total(), kBlocks) << report.to_string();
  EXPECT_EQ(report.live_allocations, kBlocks);
  ASSERT_FALSE(report.records.empty());
  for (std::size_t i = 1; i < report.records.size(); ++i) {
    EXPECT_LT(report.records[i - 1].offset, report.records[i].offset);
  }
}

TEST(ValidatingManager, AuditCatchesDamagedHeaders) {
  // The front redzone's header is the only record of a live block: {magic
  // u32, rank u32, size u64, two canary words}. Damage to either field must
  // fail the audit, and a size past the heap must never be followed.
  Device small(16u << 20, GpuConfig{.num_sms = 1});
  auto mgr = make_validated(small, 8u << 20, "Atomic");
  std::byte* blocks[2] = {};
  small.launch(1, 2, [&](ThreadCtx& t) {
    blocks[t.lane_id()] = static_cast<std::byte*>(mgr->malloc(t, 64));
  });
  ASSERT_NE(blocks[0], nullptr);
  ASSERT_NE(blocks[1], nullptr);
  ASSERT_TRUE(mgr->audit().ok);

  std::byte* magic = blocks[0] - ValidatingManager::kFrontBytes;
  std::uint32_t saved = 0;
  std::memcpy(&saved, magic, sizeof saved);
  const std::uint32_t stomped = 0;
  std::memcpy(magic, &stomped, sizeof stomped);
  auto audit = mgr->audit();
  EXPECT_FALSE(audit.ok);
  EXPECT_EQ(audit.failures, 1u);
  EXPECT_NE(audit.detail.find("magic"), std::string::npos) << audit.detail;
  std::memcpy(magic, &saved, sizeof saved);
  ASSERT_TRUE(mgr->audit().ok);

  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(blocks[1] - ValidatingManager::kFrontBytes + 8, &huge,
              sizeof huge);
  audit = mgr->audit();
  EXPECT_FALSE(audit.ok);
  EXPECT_EQ(audit.failures, 1u);
  EXPECT_NE(audit.detail.find("past the inner heap"), std::string::npos)
      << audit.detail;
  const auto report = mgr->drain_report(/*leaks_are_errors=*/false);
  EXPECT_EQ(report.count(ErrorKind::kRedzone), 1u) << report.to_string();
  EXPECT_EQ(report.total(), 1u) << report.to_string();
  EXPECT_EQ(report.live_allocations, 2u);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].size, huge);
  EXPECT_EQ(report.records[0].offset,
            static_cast<std::uint64_t>(blocks[1] - small.arena().data()));
}

TEST(ValidatingManager, WarpFreeAllRetiresOnlyItsWarp) {
  // Warps 0, 1 and 1,024 take turns at the Atomic bump pointer, so their
  // blocks interleave in address order. A 64 KiB heap leaves room for at
  // most 1,024 warp spans, so warps 0 and 1,024 share one. Each
  // warp_free_all retires exactly the calling warp's blocks; the others
  // still audit clean, and a repeated call retires none.
  Device small(1u << 20, GpuConfig{.num_sms = 1});
  auto mgr = make_validated(small, 64u << 10, "Atomic");
  constexpr unsigned kWarps[3] = {0, 1, 1024};
  constexpr unsigned kGrid = 33, kBlock = 1024;  // ranks up to warp 1,055
  std::vector<std::byte*> blocks;
  for (unsigned k = 0; k < 9; ++k) {
    small.launch(kGrid, kBlock, [&](ThreadCtx& t) {
      if (t.thread_rank() == kWarps[k % 3] * gpu::kWarpSize) {
        blocks.push_back(static_cast<std::byte*>(mgr->malloc(t, 48)));
      }
    });
  }
  ASSERT_EQ(blocks.size(), 9u);
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    ASSERT_LT(blocks[i - 1], blocks[i]);
  }
  const auto free_warp = [&](unsigned warp) {
    small.launch(kGrid, kBlock, [&](ThreadCtx& t) {
      if (t.thread_rank() / gpu::kWarpSize == warp) mgr->warp_free_all(t);
    });
  };
  free_warp(0);
  EXPECT_EQ(mgr->live_count(), 6u);
  EXPECT_TRUE(mgr->audit().ok);
  free_warp(0);
  EXPECT_EQ(mgr->live_count(), 6u);
  free_warp(1024);
  EXPECT_EQ(mgr->live_count(), 3u);
  EXPECT_TRUE(mgr->audit().ok);
  // What is left is exactly warp 1's: each block frees once, cleanly.
  small.launch(1, 64, [&](ThreadCtx& t) {
    if (t.thread_rank() != gpu::kWarpSize) return;
    for (std::size_t i = 1; i < blocks.size(); i += 3) mgr->free(t, blocks[i]);
  });
  EXPECT_EQ(mgr->live_count(), 0u);
  const auto report = mgr->drain_report(/*leaks_are_errors=*/true);
  EXPECT_EQ(report.total(), 0u) << report.to_string();
}

// ---- property test: every general-purpose allocator survives a seeded
// ---- alloc/free churn under fault injection with a clean validation report

class ValidatedChurnTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ValidatedChurnTest, FaultInjectedChurnStaysClean) {
  core::register_all_allocators();
  auto validated =
      core::StackBuilder(dev()).build(GetParam() + "+V", kHeapBytes).manager;
  ASSERT_NE(validated, nullptr);
  FaultInjector mgr(std::move(validated), FaultSpec{.mode = FaultSpec::Mode::kProb,
                                      .p = 0.15,
                                      .seed = 1234});

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
