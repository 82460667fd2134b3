#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "core/registry.h"
#include "core/stack_builder.h"
#include "workloads/graph.h"
#include "workloads/graph_workload.h"

namespace gms::work {
namespace {

using core::Registry;
using gpu::Device;
using gpu::GpuConfig;

Device& dev() {
  static Device device(192u << 20, GpuConfig{.num_sms = 4});
  return device;
}

std::unique_ptr<core::MemoryManager> make(const std::string& name) {
  core::register_all_allocators();
  return core::StackBuilder(dev()).build(name, 160u << 20).manager;
}

// ---- generators -------------------------------------------------------------

void check_csr_invariants(const HostGraph& g) {
  ASSERT_EQ(g.row_offsets.size(), g.num_vertices + 1u);
  EXPECT_EQ(g.row_offsets.front(), 0u);
  EXPECT_EQ(g.row_offsets.back(), g.col_indices.size());
  for (std::uint32_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_LE(g.row_offsets[v], g.row_offsets[v + 1]);
    std::set<std::uint32_t> seen;
    for (std::uint32_t e = g.row_offsets[v]; e < g.row_offsets[v + 1]; ++e) {
      const std::uint32_t u = g.col_indices[e];
      EXPECT_LT(u, g.num_vertices);
      EXPECT_NE(u, v) << "self loop";
      EXPECT_TRUE(seen.insert(u).second) << "duplicate edge";
    }
  }
}

void check_symmetric(const HostGraph& g) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t v = 0; v < g.num_vertices; ++v) {
    for (std::uint32_t e = g.row_offsets[v]; e < g.row_offsets[v + 1]; ++e) {
      edges.insert({v, g.col_indices[e]});
    }
  }
  for (const auto& [u, v] : edges) {
    EXPECT_TRUE(edges.count({v, u})) << u << "->" << v << " not mirrored";
  }
}

TEST(GraphGen, RmatValidAndSkewed) {
  const auto g = make_rmat(4'096, 16'384, 0.45, 0.22, 0.22, 1);
  check_csr_invariants(g);
  check_symmetric(g);
  // Skewed parameters concentrate degree on low vertex ids.
  std::uint64_t low = 0, high = 0;
  for (std::uint32_t v = 0; v < g.num_vertices / 8; ++v) low += g.degree(v);
  for (std::uint32_t v = g.num_vertices - g.num_vertices / 8;
       v < g.num_vertices; ++v) {
    high += g.degree(v);
  }
  EXPECT_GT(low, high * 2);
}

TEST(GraphGen, RggIsLocalAndBounded) {
  const auto g = make_rgg(4'096, 0.03, 2);
  check_csr_invariants(g);
  check_symmetric(g);
  EXPECT_GT(g.num_edges(), 0u);
  EXPECT_LT(g.max_degree(), 256u);  // geometric graphs have bounded degree
}

TEST(GraphGen, MeshDegreesAreRegular) {
  const auto g = make_mesh(32, 32);
  check_csr_invariants(g);
  check_symmetric(g);
  // Interior vertices of the diagonal mesh have degree 8... wait: right,
  // down, diagonal down-right + mirrored = 6 distinct neighbours.
  std::uint32_t interior_degree = g.degree(33 * 1 + 16);
  EXPECT_GE(interior_degree, 4u);
  EXPECT_LE(interior_degree, 8u);
  EXPECT_LE(g.max_degree(), 8u);
}

TEST(GraphGen, PreferentialAttachmentPowerLaw) {
  const auto g = make_preferential(8'192, 4, 3);
  check_csr_invariants(g);
  // Hubs must exist: max degree far above the mean.
  const double mean = static_cast<double>(g.num_edges()) / g.num_vertices;
  EXPECT_GT(g.max_degree(), mean * 8);
}

TEST(GraphGen, DimacsLikeSuiteBuilds) {
  for (const auto& name : dimacs_like_names()) {
    const auto g = make_dimacs_like(name, 64);  // heavily scaled for the test
    EXPECT_GT(g.num_vertices, 100u) << name;
    EXPECT_GT(g.num_edges(), 100u) << name;
    check_csr_invariants(g);
  }
  EXPECT_THROW(make_dimacs_like("nope", 1), std::invalid_argument);
}

TEST(GraphGen, UpdateBatchRespectsFocusRange) {
  const auto g = make_mesh(64, 64);
  const auto batch = make_update_batch(g, 1'000, 0.01, 5);
  EXPECT_EQ(batch.size(), 1'000u);
  const auto limit = static_cast<std::uint32_t>(g.num_vertices * 0.01);
  for (const auto& e : batch) {
    EXPECT_LT(e.src, std::max(1u, limit));
    EXPECT_LT(e.dst, g.num_vertices);
  }
}

// ---- dynamic graph over allocators -------------------------------------------

class DynGraphTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DynGraphTest, InitMatchesReference) {
  auto mgr = make(GetParam());
  const auto g = make_rmat(2'048, 8'192, 0.45, 0.22, 0.22, 11);
  DynGraph dyn(dev(), *mgr);
  dyn.init(g);
  EXPECT_EQ(dyn.failed_allocs(), 0u);
  EXPECT_TRUE(dyn.matches(g));
  dyn.destroy();
}

TEST_P(DynGraphTest, InsertionsGrowAdjacencies) {
  auto mgr = make(GetParam());
  const auto g = make_mesh(40, 40);
  DynGraph dyn(dev(), *mgr);
  dyn.init(g);

  // Insert a star around vertex 0 — forces repeated pow2 reallocation.
  std::vector<Edge> batch;
  for (std::uint32_t v = 100; v < 400; ++v) batch.push_back({0, v});
  dyn.insert_edges(batch);
  EXPECT_EQ(dyn.failed_allocs(), 0u);
  EXPECT_EQ(dyn.degree(0), g.degree(0) + 300);
  dyn.destroy();
}

TEST_P(DynGraphTest, DuplicateInsertIgnored) {
  auto mgr = make(GetParam());
  const auto g = make_mesh(16, 16);
  DynGraph dyn(dev(), *mgr);
  dyn.init(g);
  std::vector<Edge> batch(64, Edge{3, 200});  // same edge from 64 threads
  dyn.insert_edges(batch);
  EXPECT_EQ(dyn.degree(3), g.degree(3) + 1);
  dyn.destroy();
}

TEST_P(DynGraphTest, EraseShrinksAndStaysConsistent) {
  auto mgr = make(GetParam());
  const auto g = make_mesh(24, 24);
  DynGraph dyn(dev(), *mgr);
  dyn.init(g);
  std::vector<Edge> grow;
  for (std::uint32_t v = 50; v < 120; ++v) grow.push_back({7, v});
  dyn.insert_edges(grow);
  const auto grown = dyn.degree(7);
  dyn.erase_edges(grow);
  EXPECT_EQ(dyn.degree(7), grown - static_cast<std::uint32_t>(grow.size()));
  dyn.destroy();
}

TEST_P(DynGraphTest, ConcurrentFocusedUpdates) {
  auto mgr = make(GetParam());
  const auto g = make_rmat(1'024, 4'096, 0.45, 0.22, 0.22, 17);
  const auto r = run_graph_update(dev(), *mgr, g, 20'000, 0.02, 23);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.update_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Managers, DynGraphTest,
                         ::testing::Values("ScatterAlloc", "Halloc",
                                           "Ouro-P-S", "Ouro-C-VA", "CUDA",
                                           "RegEff-C"),
                         [](const auto& info) {
                           std::string n = info.param;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST(GraphWorkload, InitResultVerifies) {
  auto mgr = make("ScatterAlloc");
  const auto g = make_dimacs_like("fe_body", 64);
  const auto r = run_graph_init(dev(), *mgr, g);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.init_ms, 0.0);
}

}  // namespace
}  // namespace gms::work
