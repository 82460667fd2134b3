// The runtime-Config layer end to end: "{k=v}" parsing edge cases, typed
// ConfigError rejections, per-entry round-trip identity for every
// configurable registry variant, stack-spec plumbing down to a live
// manager, and the replay-driven tuner's seed-determinism (driven by a
// fake EvalFn so no replay cells fork here).
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "allocators/ouroboros.h"
#include "allocators/scatter_alloc.h"
#include "allocators/xmalloc.h"
#include "core/alloc_config.h"
#include "core/registry.h"
#include "core/stack_builder.h"
#include "gpu/device.h"
#include "trace/trace_recorder.h"
#include "tuning/tuner.h"

namespace gms::core {
namespace {

using Kind = ConfigError::Kind;

/// EXPECT that `expr` throws ConfigError with `kind` naming `field`.
template <typename Fn>
void expect_config_error(Fn&& fn, Kind kind, const std::string& field) {
  try {
    fn();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(static_cast<int>(e.kind()), static_cast<int>(kind))
        << e.what();
    EXPECT_EQ(e.field(), field) << e.what();
  }
}

// ---- "{k=v,...}" override text ------------------------------------------

TEST(ConfigParse, EmptyAndExplicitDefaults) {
  EXPECT_TRUE(parse_config_overrides("").empty());
  EXPECT_TRUE(parse_config_overrides("{}").empty());
}

TEST(ConfigParse, SingleAndMultiplePairsPreserveOrder) {
  const auto one = parse_config_overrides("{page_size=8192}");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].first, "page_size");
  EXPECT_EQ(one[0].second, "8192");

  const auto two = parse_config_overrides("{b=2,a=1}");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].first, "b");  // written order, not sorted
  EXPECT_EQ(two[1].first, "a");
}

TEST(ConfigParse, SyntaxRejections) {
  expect_config_error([] { (void)parse_config_overrides("page_size=1"); },
                      Kind::kSyntax, "");
  expect_config_error([] { (void)parse_config_overrides("{page_size}"); },
                      Kind::kSyntax, "");
  expect_config_error([] { (void)parse_config_overrides("{=1}"); },
                      Kind::kSyntax, "");
  expect_config_error([] { (void)parse_config_overrides("{a=}"); },
                      Kind::kSyntax, "");
  expect_config_error([] { (void)parse_config_overrides("{a=1,}"); },
                      Kind::kSyntax, "");
  expect_config_error([] { (void)parse_config_overrides("{a b=1}"); },
                      Kind::kSyntax, "");
}

TEST(ConfigParse, DuplicateKeyIsTyped) {
  expect_config_error([] { (void)parse_config_overrides("{a=1,a=2}"); },
                      Kind::kDuplicateKey, "a");
}

TEST(ConfigParse, SplitSuffix) {
  auto [plain, none] = split_config_suffix("Halloc");
  EXPECT_EQ(plain, "Halloc");
  EXPECT_TRUE(none.empty());

  auto [base, braced] = split_config_suffix("ScatterAlloc{page_size=8192}");
  EXPECT_EQ(base, "ScatterAlloc");
  EXPECT_EQ(braced, "{page_size=8192}");

  expect_config_error([] { (void)split_config_suffix("X{a=1"); },
                      Kind::kSyntax, "");
}

TEST(ConfigParse, FormatRoundTrips) {
  const std::string text = "{page_size=8192,hash_stride=7}";
  EXPECT_EQ(format_config(parse_config_overrides(text)), text);
  EXPECT_EQ(format_config({}), "");
}

TEST(ConfigParse, FormatDoubleRoundTripsBitExact) {
  for (double v : {0.835, 0.02, 0.6, 1.0 / 3.0, 1e-9, 123456.789}) {
    const std::string s = format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(ConfigParse, LadderValidation) {
  const auto rungs = parse_ladder_string("16:24:32");
  EXPECT_EQ(rungs, (std::vector<std::uint64_t>{16, 24, 32}));

  expect_config_error([] { (void)parse_ladder_string(""); }, Kind::kBadLadder,
                      "ladder");
  expect_config_error([] { (void)parse_ladder_string("16:16"); },
                      Kind::kBadLadder, "ladder");
  expect_config_error([] { (void)parse_ladder_string("32:16"); },
                      Kind::kBadLadder, "ladder");
  expect_config_error([] { (void)parse_ladder_string("16:x:32"); },
                      Kind::kBadLadder, "ladder");
  std::string too_long = "1";
  for (std::size_t i = 2; i <= kMaxLadderClasses + 1; ++i) {
    too_long += ":" + std::to_string(i);
  }
  expect_config_error([&] { (void)parse_ladder_string(too_long); },
                      Kind::kBadLadder, "ladder");
}

// ---- Schema-level typed rejections --------------------------------------

TEST(ConfigSchemaTest, TypedRejections) {
  const auto& schema = alloc::ScatterAlloc::config_schema();
  const alloc::ScatterAlloc::Config defaults;

  expect_config_error(
      [&] { (void)schema.parse({{"warp_speed", "9"}}, defaults); },
      Kind::kUnknownKey, "warp_speed");
  expect_config_error(
      [&] {
        (void)schema.parse({{"page_size", "4096"}, {"page_size", "8192"}},
                           defaults);
      },
      Kind::kDuplicateKey, "page_size");
  expect_config_error(
      [&] { (void)schema.parse({{"page_size", "fast"}}, defaults); },
      Kind::kBadValue, "page_size");
  expect_config_error(
      [&] { (void)schema.parse({{"page_size", "256"}}, defaults); },
      Kind::kOutOfRange, "page_size");
  expect_config_error(
      [&] { (void)schema.parse({{"page_size", "5000"}}, defaults); },
      Kind::kNotPow2, "page_size");
  // Cross-field check: even stride breaks pow2 coprimality.
  expect_config_error(
      [&] { (void)schema.parse({{"hash_stride", "4"}}, defaults); },
      Kind::kOutOfRange, "hash_stride");

  // Ouroboros' cross-field invariant: the ladder's top class must fit a
  // chunk. num_classes=11 alone (16 KiB top, 8 KiB chunks) is rejected;
  // paired with chunk_bytes=16384 it parses — the tuner reaches such
  // corners only through crossover.
  const auto& oschema = alloc::Ouroboros::config_schema();
  expect_config_error(
      [&] {
        (void)oschema.parse({{"num_classes", "11"}}, alloc::Ouroboros::Config{});
      },
      Kind::kOutOfRange, "num_classes");
  EXPECT_NO_THROW((void)oschema.parse(
      {{"num_classes", "11"}, {"chunk_bytes", "16384"}},
      alloc::Ouroboros::Config{}));
}

// ---- Every configurable registry entry round-trips -----------------------

class ConfigRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { register_all_allocators(); }
  Registry& reg() { return Registry::instance(); }
};

TEST_F(ConfigRegistryTest, EveryConfigurableEntryRoundTrips) {
  std::size_t configurable = 0;
  for (const auto& name : reg().names()) {
    const auto* entry = reg().find(name);
    ASSERT_NE(entry, nullptr) << name;
    if (entry->config == nullptr) continue;
    ++configurable;
    const auto defaults = entry->config->defaults();
    // parse(serialize(defaults)) == defaults: the canonical form is a fixed
    // point, so tuned configs written to disk reload identically.
    EXPECT_EQ(entry->config->canonicalize({}), defaults) << name;
    EXPECT_EQ(entry->config->canonicalize(defaults), defaults) << name;
    // Reflection agrees with serialization, field for field.
    const auto& fields = entry->config->fields();
    ASSERT_EQ(fields.size(), defaults.size()) << name;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      EXPECT_EQ(fields[i].name, defaults[i].first) << name;
    }
  }
  // Everything except CudaStandin carries a config surface; the decorated
  // twins delegate to their base entry's model.
  EXPECT_EQ(configurable, reg().names().size() - 1);
  for (const auto& name : reg().names()) {
    if (name == "CUDA") continue;
    const auto* twin = reg().find(name + "+V");
    ASSERT_NE(twin, nullptr) << name;
    EXPECT_NE(twin->config, nullptr) << name;
    EXPECT_EQ(twin->config->defaults(), reg().find(name)->config->defaults())
        << name;
  }
}

TEST_F(ConfigRegistryTest, IdentityFieldsAreNotOverridable) {
  // RegEff fused/multi and Ouroboros queue/chunk_based distinguish registry
  // entries; the schema must not expose them.
  for (const auto* name : {"RegEff-CF", "Ouro-P-S", "Ouro-C-VA"}) {
    const auto* entry = reg().find(name);
    ASSERT_NE(entry, nullptr) << name;
    ASSERT_NE(entry->config, nullptr) << name;
    for (const auto& f : entry->config->fields()) {
      EXPECT_NE(f.name, "fused") << name;
      EXPECT_NE(f.name, "multi") << name;
      EXPECT_NE(f.name, "queue") << name;
      EXPECT_NE(f.name, "chunk_based") << name;
    }
  }
}

TEST_F(ConfigRegistryTest, SelectKeepsBracedTokensWhole) {
  const auto names =
      reg().select("XMalloc{num_classes=11,class_base=32},Halloc");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "XMalloc{num_classes=11,class_base=32}");
  EXPECT_EQ(names[1], "Halloc");

  EXPECT_THROW((void)reg().select("NoSuchAlloc{a=1}"), std::invalid_argument);
  expect_config_error([&] { (void)reg().select("CUDA{a=1}"); },
                      Kind::kNotConfigurable, "CUDA");
  // Values are checked against the schema before anything is built.
  expect_config_error(
      [&] { (void)reg().select("Halloc,Halloc{head_replace_fill=1.0}"); },
      Kind::kOutOfRange, "head_replace_fill");
}

// ---- Stack-spec plumbing down to a live manager --------------------------

TEST_F(ConfigRegistryTest, StackSpecRoundTripsConfigSuffix) {
  const std::string text = "validate>ScatterAlloc{page_size=8192,hash_stride=7}";
  const auto spec = StackSpec::parse(text);
  EXPECT_EQ(spec.base, "ScatterAlloc");
  ASSERT_EQ(spec.base_config.size(), 2u);
  EXPECT_EQ(spec.base_config[0].first, "page_size");
  EXPECT_EQ(spec.to_string(), text);

  EXPECT_THROW((void)StackSpec::parse("validate>ScatterAlloc{page_size}"),
               ConfigError);
}

TEST_F(ConfigRegistryTest, BuildAppliesOverridesToTheManager) {
  gpu::Device dev(32u << 20, gpu::GpuConfig{.num_sms = 2});
  auto spec = StackSpec::parse("XMalloc{num_classes=12,class_base=32}");
  auto stack = StackBuilder(dev).build(spec, 16u << 20);
  auto* xm = dynamic_cast<alloc::XMalloc*>(stack.manager.get());
  ASSERT_NE(xm, nullptr);
  EXPECT_EQ(xm->config().num_classes, 12u);
  EXPECT_EQ(xm->config().class_base, 32u);
  EXPECT_EQ(xm->config().blocks_per_super, 32u);  // untouched default

  // Same overrides through a decorated twin reach the base manager.
  auto vspec = StackSpec::parse("XMalloc+V{num_classes=12}");
  auto vstack = StackBuilder(dev).build(vspec, 16u << 20);
  ASSERT_NE(vstack.validator, nullptr);

  // Bad values surface as typed errors at build time, not at first malloc.
  auto bad = StackSpec::parse("XMalloc{num_classes=99}");
  EXPECT_THROW((void)StackBuilder(dev).build(bad, 16u << 20), ConfigError);
  auto uncfg = StackSpec::parse("CUDA{num_classes=9}");
  expect_config_error([&] { (void)StackBuilder(dev).build(uncfg, 16u << 20); },
                      Kind::kNotConfigurable, "CUDA");
}

// ---- Tuner: deterministic search over a fake objective -------------------

class ConfigTunerTest : public ConfigRegistryTest {};

/// Fake objective: deterministic function of the canonical config text, fast
/// (no forks). page_size=8192 beats everything else by a mile.
tuning::EvalResult fake_eval(const ConfigKV& canonical) {
  double ms = 100.0;
  for (const auto& [k, v] : canonical) {
    if (k == "page_size" && v == "8192") ms = 10.0;
    if (k == "probe_limit") ms += std::strtod(v.c_str(), nullptr) / 1024.0;
  }
  return {Verdict::kOk, ms, "fake"};
}

TEST_F(ConfigTunerTest, GridSeedsAreDeterministicAndValid) {
  const auto* entry = reg().find("ScatterAlloc");
  ASSERT_NE(entry, nullptr);
  tuning::TunerOptions opts;
  tuning::Tuner a(*entry->config, opts), b(*entry->config, opts);
  const auto sa = a.grid_seeds(), sb = b.grid_seeds();
  EXPECT_EQ(sa, sb);
  EXPECT_FALSE(sa.empty());
  std::set<std::string> canon;
  for (const auto& kv : sa) {
    // Every grid seed validates (grids live inside the schema ranges).
    EXPECT_NO_THROW((void)entry->config->canonicalize(kv));
    canon.insert(format_config(kv));
  }
  EXPECT_EQ(canon.size(), sa.size());  // no duplicate seeds
}

TEST_F(ConfigTunerTest, SameSeedSameSearch) {
  const auto* entry = reg().find("ScatterAlloc");
  ASSERT_NE(entry, nullptr);
  tuning::TunerOptions opts;
  opts.generations = 3;
  opts.population = 8;
  opts.seed = 0xDEADBEEFull;

  auto run = [&] {
    tuning::Tuner t(*entry->config, opts);
    return t.run([&](const ConfigKV& kv) {
      return fake_eval(entry->config->canonicalize(kv));
    });
  };
  const auto r1 = run(), r2 = run();
  EXPECT_EQ(r1.best.canonical, r2.best.canonical);
  EXPECT_EQ(r1.evaluated, r2.evaluated);
  EXPECT_EQ(r1.deduped, r2.deduped);
  EXPECT_EQ(r1.speedup, r2.speedup);
  ASSERT_EQ(r1.ranked.size(), r2.ranked.size());
  for (std::size_t i = 0; i < r1.ranked.size(); ++i) {
    EXPECT_EQ(r1.ranked[i].canonical, r2.ranked[i].canonical) << i;
  }

  // The planted optimum is on the grid, so the search must find it (the
  // probe_limit term only nudges the tail digits).
  EXPECT_NEAR(r1.best.eval.ms, 10.0, 0.5);
  EXPECT_GT(r1.speedup, 5.0);
  bool found = false;
  for (const auto& [k, v] : r1.best.overrides) {
    if (k == "page_size" && v == "8192") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ConfigTunerTest, DisqualifiedCandidatesNeverWin) {
  const auto* entry = reg().find("ScatterAlloc");
  ASSERT_NE(entry, nullptr);
  tuning::TunerOptions opts;
  opts.generations = 2;
  opts.population = 6;
  // Everything except the defaults crashes; best must stay the baseline.
  tuning::Tuner t(*entry->config, opts);
  const auto report = t.run([&](const ConfigKV& kv) -> tuning::EvalResult {
    if (kv.empty()) return {Verdict::kOk, 50.0, ""};
    return {Verdict::kCrash, 1.0, "boom"};
  });
  EXPECT_TRUE(report.best.overrides.empty());
  EXPECT_EQ(report.speedup, 1.0);
  EXPECT_GT(report.disqualified, 0u);
}

}  // namespace
}  // namespace gms::core
