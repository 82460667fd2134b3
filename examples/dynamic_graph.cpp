// Dynamic graph analytics — the real-world test of §4.4.3/§4.4.4: build a
// graph whose adjacency lists live in dynamically managed device memory,
// then stream edge insertions that force power-of-two reallocation.
//
//   ./dynamic_graph [allocator-name] [graph-name] [scale]
#include <cstdio>
#include <string>

#include "core/stack_builder.h"
#include "workloads/graph.h"
#include "workloads/graph_workload.h"

int main(int argc, char** argv) {
  using namespace gms;
  core::register_all_allocators();
  const std::string name = argc > 1 ? argv[1] : "Ouro-P-S";
  const std::string graph_name = argc > 2 ? argv[2] : "coAuthorsCiteseer";
  const std::uint32_t scale =
      argc > 3 ? static_cast<std::uint32_t>(std::stoul(argv[3])) : 16;

  const auto graph = work::make_dimacs_like(graph_name, scale);
  std::printf("graph %s (1/%u scale): %u vertices, %u directed edges, "
              "max degree %u\n",
              graph_name.c_str(), scale, graph.num_vertices,
              graph.num_edges(), graph.max_degree());

  gpu::Device device(512u << 20);
  auto stack = core::StackBuilder(device).build(name, 384u << 20);
  auto& manager = stack.manager;
  work::DynGraph dyn(device, *manager);

  const double init_ms = dyn.init(graph);
  std::printf("[%s] init          : %8.3f ms (%s)\n", name.c_str(), init_ms,
              dyn.matches(graph) ? "verified" : "MISMATCH");

  // Uniform updates, then updates focused on 1 % of sources (§4.4.4).
  const auto uniform = work::make_update_batch(graph, 50'000, 1.0, 1);
  const double uni_ms = dyn.insert_edges(uniform);
  std::printf("[%s] 50K uniform   : %8.3f ms\n", name.c_str(), uni_ms);

  const auto focused = work::make_update_batch(graph, 50'000, 0.01, 2);
  const double foc_ms = dyn.insert_edges(focused);
  std::printf("[%s] 50K focused   : %8.3f ms (1%% of sources -> contention "
              "and realloc pressure)\n",
              name.c_str(), foc_ms);

  const double del_ms = dyn.erase_edges(focused);
  std::printf("[%s] 50K deletions : %8.3f ms\n", name.c_str(), del_ms);
  std::printf("allocation failures over the whole run: %llu\n",
              static_cast<unsigned long long>(dyn.failed_allocs()));
  dyn.destroy();
  return dyn.failed_allocs() == 0 ? 0 : 1;
}
