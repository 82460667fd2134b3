#include "metrics.h"

#include "core/registry.h"

namespace perfbench {

namespace core = gms::core;

std::vector<MetricDecl> end_to_end_metrics() {
  return {{"ops_per_s", "ops/s"},
          {"p50_ms", "ms"},
          {"setup_s", "s"},
          {"peak_rss_mb", "MiB"},
          {"ok_pct", "%"}};
}

std::vector<MetricDecl> layer_metrics() {
  std::vector<MetricDecl> out;
  auto add = [&out](std::string name, std::string unit) {
    out.push_back({std::move(name), std::move(unit)});
  };
  // gpu: the SIMT simulator under every kernel.
  add("gpu.launch_floor_ms", "ms");
  add("gpu.sim_share_pct", "%");
  add("gpu.lane_switches_per_op", "count");
  add("gpu.collectives_per_op", "count");
  add("gpu.backoffs_per_op", "count");
  add("gpu.os_yields", "count");
  add("gpu.kernel_tail_ms", "ms");
  add("gpu.kernel_tail_pctl", "pctl");
  add("gpu.kernel_tail_samples", "count");
  // allocators / hostalloc: one pair per bare manager, then the aggregates.
  core::register_all_allocators();
  const auto& reg = core::Registry::instance();
  for (const auto& name : reg.names()) {
    const std::string cell =
        (reg.find(name)->traits.host_based ? "hostalloc." : "allocators.") +
        name;
    add(cell + ".ops_per_s", "ops/s");
    add(cell + ".atomics_per_op", "count");
  }
  add("allocators.malloc_kernel_p50_ms", "ms");
  add("allocators.free_kernel_p50_ms", "ms");
  add("allocators.cas_fail_pct", "%");
  add("allocators.frag_ratio", "ratio");
  add("allocators.oom_fill_pct", "%");
  add("allocators.exhaust_s", "s");
  add("hostalloc.backoffs_per_op", "count");
  // alloc_core: relay and the warpagg / resilient stages.
  add("alloc_core.relay_share_pct", "%");
  add("alloc_core.warpagg.aggregated_pct", "%");
  add("alloc_core.warpagg.switches", "count");
  add("alloc_core.warpagg.tax_pct", "%");
  add("alloc_core.resilient.recovered_pct", "%");
  add("alloc_core.resilient.unrecovered", "count");
  add("alloc_core.resilient.tax_pct", "%");
  // core: the validate stage.
  add("core.validate.tax_pct", "%");
  add("core.validate.exhaust_tax_pct", "%");
  add("core.validate.atomics_added_per_op", "count");
  // trace: record and replay.
  add("trace.events_per_op", "count");
  add("trace.dropped", "count");
  add("trace.record_tax_pct", "%");
  add("trace.replay_ops_per_s", "ops/s");
  // service: the AllocService coordinator.
  add("service.batch_tail_ms", "ms");
  add("service.batch_tail_pctl", "pctl");
  add("service.batch_tail_samples", "count");
  add("service.exec_share_pct", "%");
  add("service.ms_per_round", "ms");
  add("service.rounds", "count");
  // workloads: the paper's §4.4 applications.
  add("workloads.workgen_ms", "ms");
  add("workloads.workgen_baseline_ms", "ms");
  add("workloads.access_write_ms", "ms");
  add("workloads.access_tx_ratio", "ratio");
  add("workloads.graph_init_ms", "ms");
  add("workloads.graph_update_ms", "ms");
  // The spans: self time per layer, calls per public entry point.
  for (const char* layer : {"bench", "gpu", "core", "allocators", "hostalloc",
                            "trace", "service", "workloads"}) {
    add(std::string(layer) + ".self_s", "s");
  }
  for (const char* call :
       {"gpu.calls.launch", "core.calls.build", "allocators.calls.audit",
        "hostalloc.calls.audit", "allocators.calls.malloc",
        "allocators.calls.free", "hostalloc.calls.malloc",
        "hostalloc.calls.free", "trace.calls.replay",
        "service.calls.run_until_drained", "workloads.calls.run_workgen",
        "workloads.calls.run_workgen_baseline",
        "workloads.calls.run_access_perf", "workloads.calls.run_graph_init",
        "workloads.calls.run_graph_update", "workloads.calls.run_oom"}) {
    add(call, "count");
  }
  add("trace_overhead_pct", "%");
  return out;
}

}  // namespace perfbench
