// Allocator shoot-out: the one-declaration-swap usability claim of §3 in
// action — the identical mixed alloc/free workload runs over every
// registered general-purpose manager and prints a ranking.
//
//   ./allocator_shootout [threads] [max-bytes]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/stack_builder.h"
#include "core/utils.h"
#include "gpu/device.h"
#include "workloads/alloc_perf.h"

int main(int argc, char** argv) {
  using namespace gms;
  core::register_all_allocators();
  const std::size_t threads = argc > 1 ? std::stoull(argv[1]) : 20'000;
  const std::size_t max_bytes = argc > 2 ? std::stoull(argv[2]) : 256;

  struct Entry {
    std::string name;
    double mean_ms;
    double free_ms;
  };
  std::vector<Entry> ranking;

  for (const auto& name :
       core::Registry::instance().names(/*general_purpose_only=*/true)) {
    gpu::Device device(256u << 20);
    auto stack = core::StackBuilder(device).build(name, 192u << 20);
    auto& mgr = stack.manager;
    work::AllocPerfParams params;
    params.num_allocs = threads;
    params.size_min = 4;
    params.size_max = max_bytes;
    params.iterations = 3;
    const auto series = work::run_alloc_perf(device, *mgr, params);
    if (series.failed_allocs != 0) {
      std::printf("%-12s  ran out of memory (%llu failures)\n", name.c_str(),
                  static_cast<unsigned long long>(series.failed_allocs));
      continue;
    }
    ranking.push_back({name, series.alloc_summary().mean_ms,
                       series.free_summary().mean_ms});
  }

  std::sort(ranking.begin(), ranking.end(),
            [](const Entry& a, const Entry& b) { return a.mean_ms < b.mean_ms; });
  std::printf("\nmixed 4-%zu B, %zu threads, 3 rounds — mean kernel time\n",
              max_bytes, threads);
  std::printf("%-4s %-12s %12s %12s\n", "#", "allocator", "malloc ms",
              "free ms");
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    std::printf("%-4zu %-12s %12.3f %12.3f\n", i + 1, ranking[i].name.c_str(),
                ranking[i].mean_ms, ranking[i].free_ms);
  }
  return ranking.empty() ? 1 : 0;
}
