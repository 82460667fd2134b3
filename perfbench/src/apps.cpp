// apps: the paper's §4.4 applications over one general-purpose manager per
// family, at 1 SM: work generation beside its prefix-sum Baseline, memory
// access with the 128-byte transaction proxy, and a seeded R-MAT graph
// built and then updated on 1% of its sources. Allocations here are
// written, read and reallocated, so a manager that buys malloc speed by
// scattering memory pays for it here.
#include <map>
#include <set>

#include "bench.h"
#include "call_counter.h"
#include "core/registry.h"
#include "workloads/graph.h"
#include "workloads/graph_workload.h"
#include "workloads/workgen.h"

namespace perfbench {

namespace work = gms::work;

namespace {

constexpr unsigned kSms = 1;
constexpr std::size_t kHeap = std::size_t{256} << 20;
constexpr std::size_t kArenaSlack = std::size_t{8} << 20;
constexpr std::size_t kWorkgenThreads = 8192;
constexpr std::size_t kWorkMin = 4, kWorkMax = 4096;
constexpr std::size_t kAccessThreads = 16384;
constexpr std::size_t kAccessMin = 16, kAccessMax = 128;
constexpr std::uint32_t kGraphVertices = 1u << 13;
constexpr std::uint32_t kGraphEdges = 1u << 16;
constexpr std::size_t kGraphUpdates = 1u << 13;
constexpr double kUpdateFocus = 0.01;

/// The first general-purpose registry entry of each family.
std::vector<std::string> one_per_family() {
  const auto& reg = core::Registry::instance();
  std::vector<std::string> out;
  std::set<std::string_view> seen;
  for (const auto& name : reg.names(/*general_purpose_only=*/true)) {
    if (seen.insert(reg.find(name)->traits.family).second) out.push_back(name);
  }
  return out;
}

}  // namespace

Report run_apps(Run& run) {
  core::register_all_allocators();
  const auto managers = one_per_family();
  // Per manager: workgen, access write, graph init, graph update.
  std::map<std::string, std::map<std::string, std::vector<double>>> step_ms;
  std::map<std::string, std::vector<double>> tx_ratio;
  std::vector<double> baseline_ms;
  std::map<std::string, double> calls;
  const std::uint64_t seed = run.opt.seed;

  auto workload_span = run.spans.open("bench", "apps");
  while (run.next_pass()) {
    const auto graph = run.setup("graph", [&] {
      return work::make_rmat(kGraphVertices, kGraphEdges, 0.57, 0.19, 0.19,
                             seed);
    });
    std::vector<std::byte> scratch = run.setup("baseline", [] {
      return std::vector<std::byte>(kWorkgenThreads * kWorkMax);
    });
    std::uint64_t baseline_sum = 0;
    {
      auto dev = run.setup("baseline", [] {
        return std::make_unique<gpu::Device>(kArenaSlack,
                                             gpu::GpuConfig{.num_sms = kSms});
      });
      auto s = run.spans.open("workloads", "run_workgen_baseline");
      const auto b = work::run_workgen_baseline(*dev, scratch, kWorkgenThreads,
                                                kWorkMin, kWorkMax, seed);
      baseline_ms.push_back(b.total_ms);
      baseline_sum = b.checksum;
    }
    for (const auto& name : managers) {
      auto cell_span = run.spans.open("bench", "cell");
      auto dev = run.setup(name, [&] {
        return std::make_unique<gpu::Device>(kHeap + kArenaSlack,
                                             gpu::GpuConfig{.num_sms = kSms});
      });
      auto stack = run.setup(name, [&] {
        auto s = run.build(*dev, name, kHeap);
        warm_up(run, *dev, kAccessThreads);
        return s;
      });
      CallCounter counter(*stack.manager, kSms);
      auto& ms = step_ms[name];
      const std::string layer{Run::layer_of(*stack.manager)};

      // Times one library call from outside and feeds the throughput.
      auto timed = [&](const char* step, auto&& call) {
        const auto before = counter.totals();
        auto s = run.spans.open("workloads", step);
        const auto t0 = Run::Clock::now();
        auto result = call();
        const double secs = Run::seconds_since(t0);
        const auto after = counter.totals();
        run.throughput.add(name + "/" + step,
                           static_cast<double>(after.ops() - before.ops()), secs);
        return result;
      };

      const auto wg = timed("run_workgen", [&] {
        return work::run_workgen(*dev, counter, kWorkgenThreads, kWorkMin,
                                 kWorkMax, seed);
      });
      check(wg.failed == 0, name + ": work generation failed to allocate");
      check(wg.checksum == baseline_sum,
            name + ": work-generation checksum differs from the Baseline's");
      ms["workgen"].push_back(wg.total_ms);

      const auto acc = timed("run_access_perf", [&] {
        return work::run_access_perf(*dev, counter, kAccessThreads, kAccessMin,
                                     kAccessMax, seed);
      });
      ms["access_write"].push_back(acc.write_ms);
      tx_ratio[name].push_back(acc.transaction_ratio());

      const auto init = timed("run_graph_init", [&] {
        return work::run_graph_init(*dev, counter, graph, /*verify=*/false);
      });
      check(init.failed == 0, name + ": graph init failed to allocate");
      ms["graph_init"].push_back(init.init_ms);
      {
        // The check builds the graph once more, outside the timed window:
        // verify copies and sorts every adjacency list on the host.
        auto s = run.spans.open("workloads", "run_graph_init");
        const auto again =
            work::run_graph_init(*dev, counter, graph, /*verify=*/true);
        check(again.failed == 0 && again.verified,
              name + ": graph init does not match its input");
      }

      const auto upd = timed("run_graph_update", [&] {
        return work::run_graph_update(*dev, counter, graph, kGraphUpdates,
                                      kUpdateFocus, seed);
      });
      check(upd.failed == 0, name + ": graph update failed to allocate");
      ms["graph_update"].push_back(upd.update_ms);

      const auto c = counter.totals();
      check(c.failed == 0, name + ": malloc returned nullptr");
      run.mallocs += c.mallocs;
      run.failed_mallocs += c.failed;
      calls[layer + ".calls.malloc"] += static_cast<double>(c.mallocs);
      calls[layer + ".calls.free"] += static_cast<double>(c.frees);
      run.audit(counter, name);
    }
  }

  Report rep;
  rep.attempted = run.mallocs;
  rep.failed = run.failed_mallocs;
  std::vector<double> all_steps;
  std::map<std::string, std::vector<double>> per_step;
  for (const auto& [name, steps] : step_ms) {
    for (const auto& [step, ms] : steps) per_step[step].push_back(median(ms));
  }
  for (const auto& name : managers) {
    for (const char* step : {"run_workgen", "run_access_perf", "run_graph_init",
                             "run_graph_update"}) {
      all_steps.push_back(run.throughput.median_ms(name + "/" + step));
    }
  }
  add_common_metrics(rep, run, geomean(all_steps));
  rep.add("workloads.workgen_ms", geomean(per_step["workgen"]), "ms");
  rep.add("workloads.workgen_baseline_ms", median(baseline_ms), "ms");
  rep.add("workloads.access_write_ms", geomean(per_step["access_write"]), "ms");
  std::vector<double> tx;
  for (const auto& [name, r] : tx_ratio) tx.push_back(median(r));
  rep.add("workloads.access_tx_ratio", geomean(tx), "ratio");
  rep.add("workloads.graph_init_ms", geomean(per_step["graph_init"]), "ms");
  rep.add("workloads.graph_update_ms", geomean(per_step["graph_update"]), "ms");
  for (const auto& [call, n] : calls) rep.add(call, n, "count");
  // The apps' kernels run inside work::run_*, out of the benchmark's sight,
  // so only the floor is reported.
  if (run.opt.trace) add_launch_floor(rep, run, kSms, kAccessThreads, {});
  return rep;
}

}  // namespace perfbench
