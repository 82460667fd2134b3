#include <sys/resource.h>

#include "bench.h"

namespace perfbench {

void add_launch_floor(Report& rep, Run& run, unsigned num_sms,
                      std::uint64_t lanes, const std::vector<double>& kernel_ms) {
  auto s = run.spans.open("bench", "launch_floor");
  gpu::Device dev(1u << 20, gpu::GpuConfig{.num_sms = num_sms});
  warm_up(run, dev, lanes);
  std::vector<double> ms;
  for (int i = 0; i < 21; ++i) {
    ms.push_back(run.launch(dev, lanes, [](gpu::ThreadCtx&) {}).elapsed_ms);
  }
  const double floor_ms = median(ms);
  double total = 0;
  for (const double k : kernel_ms) total += k;
  rep.add("gpu.launch_floor_ms", floor_ms, "ms");
  rep.add("gpu.sim_share_pct", sim_share_pct(kernel_ms.size(), floor_ms, total),
          "%");
}

void add_kernel_metrics(Report& rep, const gpu::StatsCounters& c,
                        std::uint64_t ops, unsigned passes,
                        const std::vector<double>& kernel_ms) {
  const double n = static_cast<double>(ops);
  rep.add("gpu.lane_switches_per_op",
          per_op(static_cast<double>(c.lane_switches), n), "count");
  rep.add("gpu.collectives_per_op",
          per_op(static_cast<double>(c.collectives), n), "count");
  rep.add("gpu.backoffs_per_op", per_op(static_cast<double>(c.backoffs), n),
          "count");
  rep.add("gpu.os_yields", static_cast<double>(c.os_yields) / passes, "count");
  add_tail(rep, "gpu.kernel_tail", kernel_ms);
  rep.add("allocators.cas_fail_pct",
          share_pct(static_cast<double>(c.atomic_cas_failed),
                    static_cast<double>(c.atomic_cas)),
          "%");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_common_metrics(Report& rep, const Run& run, double p50_ms) {
  rep.ops_per_s = run.throughput.ops_per_s();
  rep.add("ops_per_s", rep.ops_per_s, "ops/s");
  rep.add("p50_ms", p50_ms, "ms");
  rep.add("setup_s", run.setup_s(), "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
  rep.add("ok_pct",
          100 - share_pct(static_cast<double>(rep.failed),
                          static_cast<double>(rep.attempted)),
          "%");
}

void add_tail(Report& rep, const std::string& prefix,
              const std::vector<double>& ms) {
  const auto t = tail(ms);
  rep.add(prefix + "_ms", t.value, "ms");
  rep.add(prefix + "_pctl", t.pctl, "pctl");
  rep.add(prefix + "_samples", static_cast<double>(t.samples), "count");
}

}  // namespace perfbench
