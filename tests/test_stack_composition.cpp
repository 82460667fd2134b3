// Stack-composition conformance (DESIGN.md §10): every registered base
// allocator is driven through the StackBuilder under each decorator
// permutation the harness actually ships — "validate", "fault>validate",
// "trace>fault>validate", "warpagg" — and the composed stack must uphold
// the same contracts the bare manager does: layer pointers are harvested,
// the identity name is a spec that rebuilds the same stack, audits merge
// down the chain, churn completes, and the large-request relay still
// honours malloc(max_direct_size + delta) for relaying managers.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc_core/resilient_manager.h"
#include "alloc_core/warp_aggregator.h"
#include "core/fault_inject.h"
#include "core/registry.h"
#include "core/stack_builder.h"
#include "core/validating_manager.h"
#include "gpu/device.h"
#include "trace/trace_recorder.h"
#include "trace/tracing_manager.h"

namespace gms {
namespace {

using core::StackBuilder;
using core::StackSpec;
using gpu::Device;
using gpu::GpuConfig;
using gpu::ThreadCtx;

// ScatterAlloc's region carving needs a comfortably non-tiny heap (see
// test_trace.cpp); the relay checks also want headroom above max_direct_size.
constexpr std::size_t kHeapBytes = 64u << 20;
constexpr std::size_t kArenaBytes = kHeapBytes + (8u << 20);
constexpr unsigned kNumSms = 2;

struct RegisterAllocators {
  RegisterAllocators() { core::register_all_allocators(); }
};
const RegisterAllocators register_allocators;

/// Small malloc/free churn respecting the base's capability traits, so the
/// same driver works for warp-scoped (FDGMalloc) and free-less (Atomic)
/// managers. `warp` allocates through warp_malloc for every base.
void churn(Device& dev, core::MemoryManager& mgr,
           const core::AllocatorTraits& base, bool warp = false) {
  constexpr std::size_t kThreads = 256;
  std::vector<void*> ptrs(kThreads, nullptr);
  dev.launch_n(kThreads, [&](ThreadCtx& t) {
    const std::size_t size = 16 + (t.thread_rank() % 7) * 16;
    void* p = warp || base.warp_level_only ? mgr.warp_malloc(t, size)
                                           : mgr.malloc(t, size);
    if (p != nullptr) *static_cast<std::uint8_t*>(p) = 1;
    ptrs[t.thread_rank()] = p;
  });
  dev.launch_n(kThreads, [&](ThreadCtx& t) {
    if (base.individual_free && base.supports_free) {
      mgr.free(t, ptrs[t.thread_rank()]);
    } else if (!base.individual_free) {
      mgr.warp_free_all(t);
    }
  });
}

class StackCompositionTest : public ::testing::TestWithParam<std::string> {
 protected:
  const core::RegistryEntry& base() {
    return *core::Registry::instance().find(GetParam());
  }
};

TEST_P(StackCompositionTest, ValidateStack) {
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  auto stack =
      StackBuilder(dev).build("validate>" + GetParam(), kHeapBytes);
  ASSERT_NE(stack.validator, nullptr);
  EXPECT_EQ(stack.injector, nullptr);
  EXPECT_EQ(stack.tracer, nullptr);
  EXPECT_EQ(stack.aggregator, nullptr);
  EXPECT_EQ(stack.base, &stack.validator->inner());
  EXPECT_EQ(stack.name, GetParam() + "+V");
  EXPECT_EQ(std::string(stack.manager->traits().name), stack.name);

  churn(dev, *stack.manager, base().traits);
  const auto report = stack.validator->drain_report(false);
  EXPECT_TRUE(report.clean()) << report.to_string();
  // The validator's audit folds in the inner manager's: whenever the bare
  // manager supports introspection, the composed stack must too, and churn
  // must not have corrupted either layer.
  auto audit = stack.manager->audit();
  EXPECT_TRUE(audit.supported);  // the validator always walks its ledger
  EXPECT_TRUE(audit.ok) << audit.detail;
}

TEST_P(StackCompositionTest, FaultValidateStack) {
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  auto stack = StackBuilder(dev).build(
      "fault{mode=nth,n=5}>validate>" + GetParam(), kHeapBytes);
  ASSERT_NE(stack.validator, nullptr);
  ASSERT_NE(stack.injector, nullptr);
  EXPECT_EQ(stack.base, &stack.validator->inner());
  // Fault layers are transparent observers: the stack keeps the validate
  // stage's identity.
  EXPECT_EQ(stack.name, GetParam() + "+V");

  churn(dev, *stack.manager, base().traits);
  EXPECT_GT(stack.injector->calls(), 0u);
  EXPECT_GT(stack.injector->injected_failures(), 0u);
  // Injected nullptrs never reach the validator's redzone bookkeeping, so
  // the report stays clean and the audit chain stays intact.
  const auto report = stack.validator->drain_report(false);
  EXPECT_TRUE(report.clean()) << report.to_string();
  auto audit = stack.manager->audit();
  EXPECT_TRUE(audit.supported);
  EXPECT_TRUE(audit.ok) << audit.detail;
}

TEST_P(StackCompositionTest, TraceFaultValidateStack) {
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  auto stack =
      StackBuilder(dev).build("trace>fault>validate>" + GetParam(),
                              kHeapBytes);
  ASSERT_NE(stack.validator, nullptr);
  ASSERT_NE(stack.injector, nullptr);  // default spec: pass-through
  ASSERT_NE(stack.tracer, nullptr);
  ASSERT_NE(stack.recorder, nullptr);
  EXPECT_EQ(stack.name, GetParam() + "+V");

  stack.recorder->set_enabled(true);
  churn(dev, *stack.manager, base().traits);
  stack.recorder->set_enabled(false);
  dev.set_launch_observer(nullptr);
  EXPECT_EQ(stack.injector->injected_failures(), 0u);  // kNone passes through
  // The outermost tracer saw every surviving request the kernel issued.
  const auto events = stack.recorder->drain();
  EXPECT_GT(events.size(), 0u);
  auto audit = stack.manager->audit();
  EXPECT_TRUE(audit.supported);
  EXPECT_TRUE(audit.ok) << audit.detail;
}

TEST_P(StackCompositionTest, WarpAggStack) {
  if (!base().traits.general_purpose) {
    GTEST_SKIP() << GetParam() << " is not general purpose";
  }
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  auto stack = StackBuilder(dev).build("warpagg>" + GetParam(), kHeapBytes);
  ASSERT_NE(stack.aggregator, nullptr);
  EXPECT_EQ(stack.validator, nullptr);
  EXPECT_EQ(stack.base, &stack.aggregator->inner());
  EXPECT_EQ(stack.name, GetParam() + "+W");

  // Pin the aggregated path through warp_malloc: the adaptive malloc would
  // keep an uncontended churn on passthrough (that regime has its own tests
  // in test_warpagg).
  churn(dev, *stack.manager, base().traits, /*warp=*/true);
  const auto report = stack.aggregator->report();
  if (stack.aggregator->inner().traits().max_direct_size >= 32u * 1024) {
    // Slab-capable inner: whole warps allocating together must have been
    // combined into single bump-carved spans.
    EXPECT_GT(report.lanes_served, 0u);
    EXPECT_GT(report.groups_combined, 0u);
    EXPECT_GT(report.slab_refills, 0u);
  } else {
    // Too small a direct-service ceiling for a slab window (Halloc,
    // Ouroboros): the aggregated path must degrade per-lane, not combine.
    EXPECT_EQ(report.groups_combined, 0u);
    EXPECT_GT(report.solo_fallbacks, 0u);
  }
}

TEST_P(StackCompositionTest, WarpAggAdaptiveDefaultStaysPassthroughWhenCalm) {
  if (!base().traits.general_purpose) {
    GTEST_SKIP() << GetParam() << " is not general purpose";
  }
  if (GetParam().find("CUDA") != std::string::npos) {
    // The stand-in's spin lock is the contended regime the adaptive policy
    // exists to catch; its switching behaviour is covered in test_warpagg.
    GTEST_SKIP() << GetParam() << " is deliberately contended";
  }
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  auto stack = StackBuilder(dev).build("warpagg>" + GetParam(), kHeapBytes);
  ASSERT_NE(stack.aggregator, nullptr);
  churn(dev, *stack.manager, base().traits);
  const auto report = stack.aggregator->report();
  // A short uncontended churn must be served on the per-lane path.
  EXPECT_GT(report.passthrough_calls, 0u);
  EXPECT_EQ(report.switches_to_agg, 0u) << report.to_string();
}

TEST_P(StackCompositionTest, IdentityNameRebuildsTheStack) {
  // Every name StackBuilder gives is a spec: building it again gives the
  // same name and the same validate, resilient and warpagg layers. Trace
  // and fault are transparent and stay out of the name wherever they sit.
  const std::string x = GetParam();
  const std::string fault = "fault{mode=nth,n=7}";
  const std::pair<std::string, std::string> shapes[] = {
      {x, x},
      {"validate>" + x, x + "+V"},
      {"resilient>" + x, x + "+R"},
      {"warpagg>" + x, x + "+W"},
      {"validate>resilient>" + x, x + "+R+V"},
      {"warpagg>resilient>" + x, x + "+R+W"},
      {"validate>" + fault + ">" + x, x + "+V"},
      {fault + ">validate>" + x, x + "+V"},
      {"trace>validate>" + fault + ">resilient>" + x, x + "+R+V"},
  };
  const auto layers = [](const core::BuiltStack& s) {
    return std::array<bool, 3>{s.validator != nullptr, s.resilient != nullptr,
                               s.aggregator != nullptr};
  };
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  for (const auto& [spec, name] : shapes) {
    std::array<bool, 3> built{};
    {
      auto stack = StackBuilder(dev).build(spec, kHeapBytes);
      dev.set_launch_observer(nullptr);  // a trace stage's recorder dies here
      EXPECT_EQ(stack.name, name) << spec;
      built = layers(stack);
    }
    const auto again = StackBuilder(dev).build(name, kHeapBytes);
    EXPECT_EQ(again.name, name) << spec;
    EXPECT_EQ(layers(again), built) << spec;
  }
}

TEST_P(StackCompositionTest, RelayContractSurvivesValidation) {
  const auto traits = base().traits;
  if (!traits.relays_large_to_system) {
    GTEST_SKIP() << GetParam() << " has no system relay";
  }
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  auto stack =
      StackBuilder(dev).build("validate>" + GetParam(), kHeapBytes);
  // A request just past the direct-service ceiling must still succeed by
  // relaying to the system stand-in — with the validator's redzones intact
  // around the relayed block.
  const std::size_t big = traits.max_direct_size + 64;
  std::vector<void*> slot(1, nullptr);
  dev.launch_n(1, [&](ThreadCtx& t) {
    slot[0] = traits.warp_level_only ? stack.manager->warp_malloc(t, big)
                                     : stack.manager->malloc(t, big);
    if (slot[0] != nullptr) {
      auto* bytes = static_cast<std::uint8_t*>(slot[0]);
      bytes[0] = 0xAB;
      bytes[big - 1] = 0xCD;
    }
  });
  ASSERT_NE(slot[0], nullptr);
  dev.launch_n(1, [&](ThreadCtx& t) {
    if (traits.individual_free && traits.supports_free) {
      stack.manager->free(t, slot[0]);
    } else if (!traits.individual_free) {
      stack.manager->warp_free_all(t);
    }
  });
  const auto report = stack.validator->drain_report(false);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    AllAllocators, StackCompositionTest,
    ::testing::ValuesIn(core::Registry::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- spec parsing and builder error paths --------------------------------

TEST(StackSpecTest, ParsesStagesOutermostFirstAndBase) {
  const auto spec = StackSpec::parse("trace>fault>validate>Halloc");
  ASSERT_EQ(spec.stages.size(), 3u);
  EXPECT_EQ(spec.stages[0].stage, StackSpec::Stage::kTrace);
  EXPECT_EQ(spec.stages[1].stage, StackSpec::Stage::kFault);
  EXPECT_EQ(spec.stages[2].stage, StackSpec::Stage::kValidate);
  EXPECT_EQ(spec.base, "Halloc");
  EXPECT_EQ(spec.to_string(), "trace>fault>validate>Halloc");
}

TEST(StackSpecTest, StageOnlySpecLeavesBaseEmpty) {
  const auto spec = StackSpec::parse("trace>validate");
  EXPECT_EQ(spec.stages.size(), 2u);
  EXPECT_TRUE(spec.base.empty());
  EXPECT_EQ(spec.to_string(), "trace>validate");
}

TEST(StackSpecTest, BareNameIsABase) {
  const auto spec = StackSpec::parse("Ouro-P-VA");
  EXPECT_TRUE(spec.stages.empty());
  EXPECT_EQ(spec.base, "Ouro-P-VA");
}

TEST(StackSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW((void)StackSpec::parse("validate>validate>Halloc"),
               std::invalid_argument);  // duplicate stage
  EXPECT_THROW((void)StackSpec::parse("bogus>validate>Halloc"),
               std::invalid_argument);  // unknown non-last token
  EXPECT_THROW((void)StackSpec::parse("trace>>Halloc"),
               std::invalid_argument);  // empty token
  EXPECT_THROW((void)StackSpec::parse(""), std::invalid_argument);
}

TEST(StackSpecTest, StageConfigsRoundTrip) {
  const std::string text =
      "trace>resilient{retries=2,reserve=10}>fault{mode=nth,n=7}>"
      "ScatterAlloc{page_size=8192}";
  const auto spec = StackSpec::parse(text);
  ASSERT_EQ(spec.stages.size(), 3u);
  EXPECT_TRUE(spec.stages[0].config.empty());
  const core::ConfigKV resilient = {{"retries", "2"}, {"reserve", "10"}};
  const core::ConfigKV fault = {{"mode", "nth"}, {"n", "7"}};
  EXPECT_EQ(spec.stages[1].config, resilient);
  EXPECT_EQ(spec.stages[2].config, fault);
  EXPECT_EQ(spec.base, "ScatterAlloc");
  EXPECT_EQ(spec.to_string(), text);
  EXPECT_EQ(StackSpec::parse(spec.to_string()).to_string(), text);
  // "{}" is an explicit empty override set and serializes away.
  EXPECT_EQ(StackSpec::parse("validate{}>Halloc").to_string(),
            "validate>Halloc");
}

/// The ConfigError a stack spec is rejected with; fails the test when the
/// spec parses.
core::ConfigError rejection(const std::string& spec) {
  try {
    (void)StackSpec::parse(spec);
  } catch (const core::ConfigError& e) {
    return e;
  }
  ADD_FAILURE() << spec << " was accepted";
  return core::ConfigError(core::ConfigError::Kind::kSyntax, "", "");
}

TEST(StackSpecTest, StageConfigsAreValidatedEagerly) {
  using Kind = core::ConfigError::Kind;
  EXPECT_EQ(rejection("trace{depth=1}>Halloc").kind(), Kind::kNotConfigurable);
  EXPECT_EQ(rejection("validate{x=1}").kind(), Kind::kNotConfigurable);
  EXPECT_EQ(rejection("validate{x=1}").field(), "validate");
  EXPECT_EQ(rejection("resilient{reserve=0}").field(), "reserve");
  EXPECT_EQ(rejection("resilient{reserve=0}").kind(), Kind::kOutOfRange);
  EXPECT_EQ(rejection("resilient{reserve=51}").kind(), Kind::kOutOfRange);
  // u32 knobs are bounded at their width: 2^32 + 10 does not wrap to 10.
  EXPECT_EQ(rejection("resilient{reserve=4294967306}").kind(),
            Kind::kOutOfRange);
  EXPECT_EQ(rejection("resilient{retries=4294967296}").kind(),
            Kind::kOutOfRange);
  EXPECT_EQ(rejection("resilient{breaker=0}>Halloc").field(), "breaker");
  EXPECT_EQ(rejection("fault{mode=nth,n=0}").field(), "n");
  EXPECT_EQ(rejection("warpagg{slab=48}>Halloc").kind(), Kind::kNotPow2);
}

TEST(StackBuilderTest, StageKnobsReachTheirLayers) {
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  auto stack = StackBuilder(dev).build(
      "warpagg{slab=16}>resilient{retries=1,reserve=20}>"
      "fault{mode=nth,n=4}>ScatterAlloc",
      kHeapBytes);
  ASSERT_NE(stack.aggregator, nullptr);
  ASSERT_NE(stack.resilient, nullptr);
  ASSERT_NE(stack.injector, nullptr);

  const core::WarpAggSpec stock_w;
  const auto& w = stack.aggregator->spec();
  EXPECT_EQ(w.slab_kb, 16u);
  EXPECT_EQ(w.enter_cost, stock_w.enter_cost);
  EXPECT_EQ(w.exit_cost, stock_w.exit_cost);
  EXPECT_EQ(w.dwell, stock_w.dwell);
  EXPECT_EQ(w.sample_every, stock_w.sample_every);
  EXPECT_EQ(w.probe_every, stock_w.probe_every);

  const core::ResilienceSpec stock_r;
  const auto& r = stack.resilient->spec();
  EXPECT_EQ(r.retries, 1u);
  EXPECT_EQ(r.reserve_percent, 20u);
  EXPECT_EQ(r.backoff_base, stock_r.backoff_base);
  EXPECT_EQ(r.seed, stock_r.seed);
  EXPECT_EQ(r.breaker_threshold, stock_r.breaker_threshold);
  EXPECT_EQ(r.breaker_decay, stock_r.breaker_decay);

  const auto& f = stack.injector->spec();
  EXPECT_EQ(f.mode, core::FaultSpec::Mode::kNth);
  EXPECT_EQ(f.n, 4u);

  churn(dev, *stack.manager,
        core::Registry::instance().find("ScatterAlloc")->traits);
  EXPECT_EQ(stack.injector->injected_failures(), stack.injector->calls() / 4);
}

TEST(StackCellTest, BuildsOneWarmStackOnAFreshDevice) {
  // One device-side and one host-based base under every marker-emitting
  // stage a bench stacks: the cell is StackBuilder on a fresh device of the
  // documented shape, warmed up once, with its recorder still off.
  constexpr unsigned kSms = 3;
  constexpr double kWatchdogMs = 1500;
  for (const std::string base : {"ScatterAlloc", "HostExtent"}) {
    SCOPED_TRACE(base);
    const auto spec = StackSpec::parse("trace>validate>resilient>" + base);
    core::StackCell cell(spec, kHeapBytes, kSms, kWatchdogMs);
    EXPECT_EQ(cell.dev().arena().size(),
              kHeapBytes + core::kArenaSlackBytes);
    EXPECT_EQ(cell.heap_bytes(), kHeapBytes);
    EXPECT_EQ(cell.dev().config().num_sms, kSms);
    EXPECT_EQ(cell.dev().config().watchdog_ms, kWatchdogMs);
    EXPECT_EQ(cell.dev().session_launches(), 1u);  // the warm-up
    EXPECT_EQ(cell.dev().session_threads_launched(), kSms * 512u);
    const core::BuiltStack& s = cell.stack();
    ASSERT_NE(s.recorder, nullptr);
    EXPECT_FALSE(s.recorder->enabled());
    EXPECT_TRUE(s.recorder->drain().empty());  // the warm-up went unrecorded

    Device dev(kHeapBytes + core::kArenaSlackBytes,
               GpuConfig{.num_sms = kSms, .lane_stack_bytes = 32 * 1024,
                         .watchdog_ms = kWatchdogMs});
    const auto hand = StackBuilder(dev).build(spec, kHeapBytes);
    EXPECT_EQ(s.name, hand.name);
    EXPECT_EQ(s.name, base + "+R+V");
    ASSERT_NE(s.validator, nullptr);
    ASSERT_NE(s.resilient, nullptr);
    ASSERT_NE(s.tracer, nullptr);
    EXPECT_NE(hand.validator, nullptr);
    EXPECT_NE(hand.resilient, nullptr);
    EXPECT_NE(hand.tracer, nullptr);
    EXPECT_EQ(s.injector, nullptr);
    EXPECT_EQ(s.aggregator, nullptr);
    EXPECT_EQ(s.base, &s.resilient->inner());
    EXPECT_EQ(s.base->traits().name, hand.base->traits().name);

    // One recorded launch, then teardown with the observer still set.
    s.recorder->set_enabled(true);
    core::MemoryManager& mgr = cell.mgr();
    cell.dev().launch_n(256, [&mgr](ThreadCtx& t) {
      if (void* p = mgr.malloc(t, 64); p != nullptr) mgr.free(t, p);
    });
    EXPECT_GT(s.recorder->buffered(), 0u);
  }
}

TEST(StackBuilderTest, UnknownBaseThrows) {
  Device dev(8u << 20, GpuConfig{.num_sms = 1});
  EXPECT_THROW((void)StackBuilder(dev).build("validate>Nope", 1u << 20),
               std::invalid_argument);
  // A stage-only spec reaching build() unresolved is equally unknown.
  EXPECT_THROW((void)StackBuilder(dev).build("trace>validate", 1u << 20),
               std::invalid_argument);
}

}  // namespace
}  // namespace gms
