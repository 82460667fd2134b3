#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/stack_builder.h"
#include "workloads/spgemm.h"

namespace gms::work {
namespace {

using core::Registry;
using gpu::Device;
using gpu::GpuConfig;

Device& dev() {
  static Device device(256u << 20, GpuConfig{.num_sms = 4});
  return device;
}

std::unique_ptr<core::MemoryManager> make(const std::string& name) {
  core::register_all_allocators();
  return core::StackBuilder(dev()).build(name, 192u << 20).manager;
}

TEST(SparseGen, RandomMatrixIsValidCsr) {
  const auto m = make_random_sparse(512, 256, 6, 1);
  ASSERT_EQ(m.row_offsets.size(), 513u);
  EXPECT_EQ(m.row_offsets.back(), m.nnz());
  for (std::uint32_t r = 0; r < m.rows; ++r) {
    for (std::uint32_t e = m.row_offsets[r]; e < m.row_offsets[r + 1]; ++e) {
      EXPECT_LT(m.col_indices[e], m.cols);
      if (e > m.row_offsets[r]) {
        EXPECT_GT(m.col_indices[e], m.col_indices[e - 1]) << "sorted, unique";
      }
      EXPECT_GT(m.values[e], 0.0f);
    }
  }
}

TEST(SpgemmReference, IdentityTimesMatrixIsMatrix) {
  SparseMatrix identity;
  identity.rows = identity.cols = 64;
  identity.row_offsets.push_back(0);
  for (std::uint32_t r = 0; r < 64; ++r) {
    identity.col_indices.push_back(r);
    identity.values.push_back(1.0f);
    identity.row_offsets.push_back(r + 1);
  }
  const auto m = make_random_sparse(64, 64, 4, 2);
  const auto c = spgemm_reference(identity, m);
  ASSERT_EQ(c.nnz(), m.nnz());
  EXPECT_EQ(c.col_indices, m.col_indices);
  for (std::uint32_t i = 0; i < c.nnz(); ++i) {
    EXPECT_FLOAT_EQ(c.values[i], m.values[i]);
  }
}

class SpgemmTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SpgemmTest, MatchesHostReference) {
  auto mgr = make(GetParam());
  const auto a = make_random_sparse(768, 768, 6, 11);
  const auto b = make_random_sparse(768, 768, 6, 12);
  auto result = run_spgemm(dev(), *mgr, a, b);
  EXPECT_EQ(result.failed_rows, 0u);
  const auto reference = spgemm_reference(a, b);
  EXPECT_EQ(result.c_nnz, reference.nnz());
  EXPECT_TRUE(spgemm_matches(result, reference));
  free_result(dev(), *mgr, result);
}

TEST_P(SpgemmTest, RepeatedMultiplicationsReuseMemory) {
  auto mgr = make(GetParam());
  const auto a = make_random_sparse(512, 512, 5, 21);
  const auto b = make_random_sparse(512, 512, 5, 22);
  for (int round = 0; round < 4; ++round) {
    auto result = run_spgemm(dev(), *mgr, a, b);
    EXPECT_EQ(result.failed_rows, 0u) << "round " << round;
    free_result(dev(), *mgr, result);
  }
}

INSTANTIATE_TEST_SUITE_P(Managers, SpgemmTest,
                         ::testing::Values("ScatterAlloc", "Halloc",
                                           "Ouro-P-S", "Ouro-C-VL", "CUDA",
                                           "XMalloc"),
                         [](const auto& info) {
                           std::string n = info.param;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

}  // namespace
}  // namespace gms::work
