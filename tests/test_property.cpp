// Property-based stress tests: randomized alloc/free interleavings checked
// against a host-side model. The invariants hold for *every* manager:
//   P1  live allocations never overlap and stay inside the heap
//   P2  data written into a block survives until its free (no clobbering)
//   P3  the heap is fully reusable after everything is freed
//   P4  failed allocations (nullptr) leave the manager consistent
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "core/registry.h"
#include "core/stack_builder.h"
#include "core/utils.h"
#include "gpu/device.h"

namespace gms {
namespace {

using core::Registry;
using gpu::Device;
using gpu::GpuConfig;
using gpu::ThreadCtx;

Device& dev() {
  static Device device(192u << 20, GpuConfig{.num_sms = 4});
  return device;
}

struct Slot {
  void* ptr = nullptr;
  std::uint32_t size = 0;
  std::uint32_t tag = 0;
};

/// One churn round: every thread owns `kSlots` slots and performs random
/// alloc/free/verify steps; returns the number of integrity violations.
class ChurnHarness {
 public:
  ChurnHarness(core::MemoryManager& mgr, std::size_t threads, unsigned slots)
      : mgr_(mgr), threads_(threads), slots_per_thread_(slots),
        slots_(threads * slots) {}

  std::uint64_t run_round(std::uint64_t seed, unsigned steps,
                          std::uint32_t max_size) {
    std::uint64_t violations = 0;
    dev().launch_n(threads_, [&](ThreadCtx& t) {
      core::SplitMix64 rng(seed ^ (t.thread_rank() * 0x9E3779B97F4A7C15ull));
      Slot* mine = &slots_[t.thread_rank() * slots_per_thread_];
      for (unsigned step = 0; step < steps; ++step) {
        const unsigned s = rng.next() % slots_per_thread_;
        Slot& slot = mine[s];
        if (slot.ptr == nullptr) {
          const auto size =
              static_cast<std::uint32_t>(rng.range(4, max_size));
          auto* p = static_cast<std::uint32_t*>(mgr_.malloc(t, size));
          if (p == nullptr) continue;  // P4: OOM is a legal outcome
          const auto tag = static_cast<std::uint32_t>(rng.next());
          p[0] = tag;
          if (size >= 8) p[size / 4 - 1] = ~tag;
          slot = Slot{p, size, tag};
        } else {
          // P2: verify the sentinel words before releasing.
          auto* p = static_cast<std::uint32_t*>(slot.ptr);
          if (p[0] != slot.tag ||
              (slot.size >= 8 && p[slot.size / 4 - 1] != ~slot.tag)) {
            t.atomic_add(&violations, std::uint64_t{1});
          }
          mgr_.free(t, slot.ptr);
          slot = Slot{};
        }
      }
    });
    return violations;
  }

  /// P1: host-side overlap check over everything still live.
  void expect_live_disjoint() const {
    std::vector<std::pair<std::size_t, std::uint32_t>> live;
    for (const Slot& s : slots_) {
      if (s.ptr != nullptr) {
        live.emplace_back(dev().arena().offset_of(s.ptr), s.size);
      }
    }
    std::sort(live.begin(), live.end());
    for (std::size_t i = 1; i < live.size(); ++i) {
      EXPECT_GE(live[i].first, live[i - 1].first + live[i - 1].second)
          << "live blocks overlap";
    }
  }

  void free_everything() {
    dev().launch_n(threads_, [&](ThreadCtx& t) {
      Slot* mine = &slots_[t.thread_rank() * slots_per_thread_];
      for (unsigned s = 0; s < slots_per_thread_; ++s) {
        if (mine[s].ptr != nullptr) {
          mgr_.free(t, mine[s].ptr);
          mine[s] = Slot{};
        }
      }
    });
  }

 private:
  core::MemoryManager& mgr_;
  std::size_t threads_;
  unsigned slots_per_thread_;
  std::vector<Slot> slots_;
};

using Param = std::tuple<std::string, std::uint64_t>;  // allocator, seed

class PropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    core::register_all_allocators();
    mgr_ = core::StackBuilder(dev())
               .build(std::get<0>(GetParam()), 160u << 20)
               .manager;
  }
  std::unique_ptr<core::MemoryManager> mgr_;
};

TEST_P(PropertyTest, RandomChurnKeepsInvariants) {
  const auto seed = std::get<1>(GetParam());
  ChurnHarness harness(*mgr_, /*threads=*/768, /*slots=*/4);
  for (unsigned round = 0; round < 3; ++round) {
    const auto violations =
        harness.run_round(seed * 1337 + round, /*steps=*/12, /*max_size=*/768);
    EXPECT_EQ(violations, 0u) << "sentinel corruption in round " << round;
    harness.expect_live_disjoint();
  }
  harness.free_everything();
}

TEST_P(PropertyTest, HeapFullyReusableAfterDrain) {
  const auto seed = std::get<1>(GetParam());
  ChurnHarness harness(*mgr_, 512, 4);
  // Many generations; without full reclamation (P3) the heap would drain.
  for (unsigned gen = 0; gen < 6; ++gen) {
    EXPECT_EQ(harness.run_round(seed + gen, 10, 512), 0u);
    harness.free_everything();
  }
  // Final wave must still be fully servable.
  std::uint64_t failures = 0;
  dev().launch_n(2'048, [&](ThreadCtx& t) {
    void* p = mgr_->malloc(t, 256);
    if (p == nullptr) {
      t.atomic_add(&failures, std::uint64_t{1});
    } else {
      mgr_->free(t, p);
    }
  });
  EXPECT_EQ(failures, 0u);
}

TEST_P(PropertyTest, SizeLadderChurnWithVerification) {
  const auto seed = std::get<1>(GetParam());
  ChurnHarness harness(*mgr_, 512, 3);
  for (const std::uint32_t max_size : {64u, 1024u, 4096u}) {
    EXPECT_EQ(harness.run_round(seed ^ max_size, 8, max_size), 0u)
        << "max_size " << max_size;
    harness.expect_live_disjoint();
    harness.free_everything();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Churn, PropertyTest,
    ::testing::Combine(
        ::testing::ValuesIn([] {
          core::register_all_allocators();
          // Every general-purpose manager (Atomic cannot free, FDGMalloc
          // cannot free individually — both are excluded, as in the paper).
          return Registry::instance().names(/*general_purpose_only=*/true);
        }()),
        ::testing::Values(std::uint64_t{1}, std::uint64_t{0xDEADBEEF},
                          std::uint64_t{0x5EEDCAFE})),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = std::get<0>(info.param) + "_s" +
                         std::to_string(std::get<1>(info.param) & 0xFFF);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace gms
