#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/registry.h"
#include "core/stack_builder.h"
#include "core/stub_allocators.h"

namespace gms::core {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { register_all_allocators(); }
  Registry& reg() { return Registry::instance(); }
};

TEST_F(RegistryTest, AllSixteenVariantsRegistered) {
  // 1 Atomic + 1 CUDA + 1 XMalloc + 1 ScatterAlloc + 1 FDG + 1 Halloc
  // + 4 Reg-Eff + 6 Ouroboros = 16 (Table 1's testable population),
  // plus extensions beyond the paper (the BulkAllocator rebuild).
  std::size_t paper_population = 0;
  for (const auto& e : reg().entries()) {
    if (!e.traits.extension && !e.traits.decorated) ++paper_population;
  }
  EXPECT_EQ(paper_population, 16u);
  EXPECT_NE(reg().find("BulkAlloc"), nullptr);
  EXPECT_TRUE(reg().find("BulkAlloc")->traits.extension);
}

TEST_F(RegistryTest, HoldsOnlyTheTwentyBases) {
  // Decorated stacks are specs over a base, not entries: 16 paper variants,
  // BulkAlloc and the 3 host-based managers.
  EXPECT_EQ(reg().entries().size(), 20u);
  EXPECT_EQ(reg().names().size(), 20u);
  EXPECT_EQ(reg().find("Halloc+V"), nullptr);
}

TEST_F(RegistryTest, FindByName) {
  EXPECT_NE(reg().find("ScatterAlloc"), nullptr);
  EXPECT_NE(reg().find("Ouro-P-VA"), nullptr);
  EXPECT_NE(reg().find("RegEff-CFM"), nullptr);
  EXPECT_EQ(reg().find("NotAnAllocator"), nullptr);
}

TEST_F(RegistryTest, PaperSelectorLettersExpand) {
  const auto all = reg().select("o+s+h+c+r+x");
  EXPECT_EQ(all.size(), 14u);  // 6 ouro + scatter + halloc + cuda + 4 regeff + xmalloc
  const auto ouro = reg().select("o");
  EXPECT_EQ(ouro.size(), 6u);
  EXPECT_THROW(reg().select("z"), std::invalid_argument);
}

TEST_F(RegistryTest, CommaListSelection) {
  const auto sel = reg().select("Halloc,ScatterAlloc,Halloc");
  EXPECT_EQ(sel.size(), 2u);  // deduplicated
  EXPECT_THROW(reg().select("Halloc,Nope"), std::invalid_argument);
}

TEST_F(RegistryTest, GeneralPurposeFilterExcludesAtomicAndFdg) {
  const auto names = reg().names(/*general_purpose_only=*/true);
  // 14 paper variants + the BulkAlloc extension + the 3 host-based managers.
  EXPECT_EQ(names.size(), 18u);
  EXPECT_EQ(std::find(names.begin(), names.end(), "Atomic"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "FDGMalloc"), names.end());
}

TEST_F(RegistryTest, HostBasedFamilyRegistered) {
  // The host-based column (src/hostalloc): three extensions, selector 'm',
  // outside the paper population.
  const auto host = reg().select("m");
  EXPECT_EQ(host.size(), 3u);
  for (const char* n : {"HostExtent", "HostBuddy", "StreamPool"}) {
    const auto* e = reg().find(n);
    ASSERT_NE(e, nullptr) << n;
    EXPECT_TRUE(e->traits.host_based) << n;
    EXPECT_TRUE(e->traits.extension) << n;
    EXPECT_TRUE(e->traits.its_safe) << n;
    EXPECT_EQ(e->traits.family, "Host-based") << n;
    EXPECT_EQ(e->selector, 'm') << n;
  }
  // Every device-side variant stays unmarked.
  for (const auto& e : reg().entries()) {
    if (e.traits.family != "Host-based") {
      EXPECT_FALSE(e.traits.host_based) << e.traits.name;
    }
  }
}

TEST_F(RegistryTest, TraitsMatchPaperTable1) {
  // Spot checks against Table 1 and §5.
  const auto* cuda = reg().find("CUDA");
  ASSERT_NE(cuda, nullptr);
  EXPECT_TRUE(cuda->traits.its_safe);
  EXPECT_TRUE(cuda->traits.stable);
  EXPECT_FALSE(cuda->traits.resizable);

  const auto* scatter = reg().find("ScatterAlloc");
  EXPECT_TRUE(scatter->traits.resizable);
  EXPECT_FALSE(scatter->traits.its_safe);

  const auto* xm = reg().find("XMalloc");
  EXPECT_FALSE(xm->traits.stable);
  EXPECT_EQ(xm->traits.malloc_state_bytes, 168u);  // the register outlier

  const auto* fdg = reg().find("FDGMalloc");
  EXPECT_TRUE(fdg->traits.warp_level_only);
  EXPECT_FALSE(fdg->traits.individual_free);

  const auto* halloc = reg().find("Halloc");
  EXPECT_EQ(halloc->traits.max_direct_size, 3072u);
  EXPECT_TRUE(halloc->traits.relays_large_to_system);

  for (const char* n : {"Ouro-P-S", "Ouro-P-VA", "Ouro-P-VL", "Ouro-C-S",
                        "Ouro-C-VA", "Ouro-C-VL"}) {
    const auto* o = reg().find(n);
    ASSERT_NE(o, nullptr) << n;
    EXPECT_TRUE(o->traits.its_safe) << n;
    EXPECT_TRUE(o->traits.resizable) << n;
  }

  // Reg-Eff: lowest footprint of the whole population (paper title claim).
  for (const auto& e : reg().entries()) {
    if (e.traits.family == "Reg-Eff" || e.traits.family == "Baseline") continue;
    if (e.traits.extension) continue;  // outside the paper's comparison
    EXPECT_GT(e.traits.malloc_state_bytes,
              reg().find("RegEff-CF")->traits.malloc_state_bytes)
        << e.traits.name;
  }
}

TEST_F(RegistryTest, SelectReadsStackSuffixes) {
  EXPECT_EQ(reg().select("Halloc+V,Halloc+V").size(), 1u);
  const auto stacked = reg().select("Halloc+R+V");
  ASSERT_EQ(stacked.size(), 1u);
  EXPECT_EQ(stacked[0], "Halloc+R+V");  // returned as written
  EXPECT_THROW((void)reg().select("Halloc+X"), std::invalid_argument);
  EXPECT_THROW((void)reg().select("Halloc+V+V"), std::invalid_argument);
  // Selector letters mixed with repetition stay deduplicated too.
  const auto mixed = reg().select("h+h");
  EXPECT_EQ(mixed.size(), 1u);
}

TEST_F(RegistryTest, StageLettersAreGone) {
  for (const char* letter : {"v", "e", "w"}) {
    try {
      (void)reg().select(letter);
      FAIL() << "select(\"" << letter << "\") should throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("unknown selector "
                                                       "letter: ") +
                                           letter),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(RegistryTest, SelectErrorsNameTheOffender) {
  try {
    (void)reg().select("z");
    FAIL() << "select(\"z\") should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown selector letter: z"),
              std::string::npos)
        << e.what();
  }
  try {
    (void)reg().select("Halloc,Nope");
    FAIL() << "select with an unknown name should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown allocator: Nope"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(RegistryTest, MakeUnknownNameThrows) {
  gpu::Device dev(8u << 20, gpu::GpuConfig{.num_sms = 1});
  try {
    (void)StackBuilder(dev).build("NotAnAllocator", 1u << 20);
    FAIL() << "building an unknown name should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown allocator: NotAnAllocator"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(RegistryTest, MakeRejectsOversizedHeap) {
  gpu::Device dev(8u << 20, gpu::GpuConfig{.num_sms = 1});
  EXPECT_THROW((void)StackBuilder(dev).build("ScatterAlloc", 1u << 30),
               std::invalid_argument);
}

// Outside RegistryTest's registering fixture: the threadsafe death-test
// child runs only this test, so it starts from an empty registry.
TEST(RegistrationOrder, BasesRegisterAfterTheStubs) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        auto& reg = Registry::instance();
        if (!reg.entries().empty()) std::_Exit(2);
        register_stub_allocators();
        register_all_allocators();
        const bool stubs = reg.find("CrashStub") != nullptr &&
                           reg.find("HangStub") != nullptr &&
                           reg.find("CorruptStub") != nullptr;
        std::fprintf(stderr, "entries=%zu names=%zu stubs=%d\n",
                     reg.entries().size(), reg.names().size(), stubs);
        std::_Exit(reg.names().size() == 20 && stubs ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace gms::core
