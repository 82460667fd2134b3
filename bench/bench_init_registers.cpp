// §4.1 — initialisation performance and the resource-footprint proxy that
// stands in for register requirements (see DESIGN.md): per-call live-state
// bytes plus measured atomic traffic per malloc/free.
#include "bench_common.h"
#include "workloads/alloc_perf.h"

int main(int argc, char** argv) {
  using namespace gms;
  auto args = bench::parse_args(argc, argv);
  if (args.iters == 0) args.iters = 3;

  core::ResultTable table({"Allocator", "init ms (mean)",
                           "malloc state B", "free state B",
                           "atomics/malloc", "atomics/free"});
  for (const auto& name : args.allocators) {
    std::vector<double> init_times;
    double atomics_per_malloc = 0, atomics_per_free = 0;
    unsigned malloc_state_bytes = 0, free_state_bytes = 0;
    for (unsigned i = 0; i < args.iters; ++i) {
      bench::ManagedDevice md(args, name);
      init_times.push_back(md.mgr().init_ms());
      if (i == 0) {
        malloc_state_bytes = md.mgr().traits().malloc_state_bytes;
        free_state_bytes = md.mgr().traits().free_state_bytes;
        work::AllocPerfParams params;
        params.num_allocs = 4'096;
        params.size = 64;
        params.iterations = 1;
        const auto series = work::run_alloc_perf(md.dev(), md.mgr(), params);
        atomics_per_malloc =
            static_cast<double>(series.alloc_counters.atomic_total()) /
            static_cast<double>(params.num_allocs);
        atomics_per_free =
            static_cast<double>(series.free_counters.atomic_total()) /
            static_cast<double>(params.num_allocs);
      }
    }
    const auto summary = core::TimingSummary::of(init_times);
    table.add_row({name, core::ResultTable::fmt_ms(summary.mean_ms),
                   std::to_string(malloc_state_bytes),
                   std::to_string(free_state_bytes),
                   core::ResultTable::fmt(atomics_per_malloc, 2),
                   core::ResultTable::fmt(atomics_per_free, 2)});
  }
  bench::emit(table, args,
              "§4.1 — initialisation & resource footprint (register proxy)");
  return 0;
}
