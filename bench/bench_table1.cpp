// Reproduces Table 1: the survey's capability matrix over every memory
// manager, generated from the registry traits instead of hand-maintained.
//
// --measure-stability re-derives the "Stable" column experimentally: each
// manager is churned under its validated "+V" twin with the launch watchdog
// armed, and the observed outcome (ok / corrupt / timeout / crash) is put
// next to the paper's reported value. The two need not agree — the paper
// tested real CUDA builds, we test the reimplementations — which is exactly
// why both columns are shown.
#include "bench_common.h"
#include "core/json_writer.h"
#include "gpu/watchdog.h"
#include "workloads/alloc_perf.h"

namespace {

/// The survey's placement column: where the allocation *decision* runs.
/// Device-side managers plan on the GPU inside the kernel; the host-based
/// family (src/hostalloc) plans in host data structures behind a device
/// lock word.
const char* placement_of(const gms::core::AllocatorTraits& t) {
  return t.host_based ? "host-based" : "device-side";
}

int measure_stability(const gms::bench::BenchArgs& args) {
  using namespace gms;
  core::ResultTable table(
      {"Short Name", "Paper Stable", "Measured", "Agrees"});
  for (const auto& name : args.allocators) {
    const auto* entry = core::Registry::instance().find(name);
    bench::BenchArgs sub = args;
    if (sub.watchdog_ms <= 0) sub.watchdog_ms = sub.timeout_s * 1000.0;
    std::string measured;
    try {
      bench::ManagedDevice md(sub, bench::validated_cell(args, name));
      work::AllocPerfParams p;
      p.num_allocs = args.threads != 0 ? args.threads : 4096;
      p.size_min = 4;
      p.size_max = 256;
      p.iterations = args.iters != 0 ? args.iters : 4;
      (void)work::run_alloc_perf(md.dev(), md.mgr(), p);
      const auto report = md.validator()->drain_report(false);
      measured = report.clean()
                     ? "ok"
                     : "corrupt(" + std::to_string(report.total()) + ")";
    } catch (const gpu::LaunchTimeout&) {
      measured = "timeout";
    } catch (const std::exception&) {
      measured = "crash";
    }
    const bool paper_stable = entry->traits.stable;
    const bool measured_ok = measured == "ok";
    table.add_row({name, paper_stable ? "yes" : "no", measured,
                   paper_stable == measured_ok ? "yes" : "NO"});
  }
  bench::emit(table, args,
              "Table 1 cross-check — measured vs. paper-reported stability");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gms;
  const auto args = bench::parse_args(argc, argv);
  if (args.measure_stability) return measure_stability(args);

  core::ResultTable table({"Short Name", "Year", "Family", "Placement", "Ref.",
                           "General Purpose", "Individual Free",
                           "Warp-Level", "Relays Large", "Max Direct (B)",
                           "Resizable", "ITS-safe", "Stable", "In Paper Eval"});
  core::BenchJson json("table1");
  json.meta().num("managers", args.allocators.size());
  for (const auto& name : args.allocators) {
    const auto* entry = core::Registry::instance().find(name);
    const auto& t = entry->traits;
    auto yn = [](bool b) { return std::string(b ? "yes" : "no"); };
    table.add_row({std::string(t.name), std::to_string(t.year),
                   std::string(t.family), placement_of(t),
                   std::string(t.paper_ref),
                   yn(t.general_purpose), yn(t.individual_free),
                   yn(t.warp_level_only), yn(t.relays_large_to_system),
                   t.max_direct_size == std::numeric_limits<std::size_t>::max()
                       ? std::string("unlimited")
                       : std::to_string(t.max_direct_size),
                   yn(t.resizable), yn(t.its_safe), yn(t.stable),
                   yn(!t.extension)});
    json.add_case()
        .str("name", t.name)
        .str("family", t.family)
        .str("placement", placement_of(t))
        .num("year", t.year)
        .boolean("general_purpose", t.general_purpose)
        .boolean("individual_free", t.individual_free)
        .boolean("resizable", t.resizable)
        .boolean("its_safe", t.its_safe)
        .boolean("stable", t.stable)
        .boolean("in_paper_eval", !t.extension)
        .num("malloc_state_bytes", t.malloc_state_bytes)
        .num("free_state_bytes", t.free_state_bytes);
  }
  bench::emit(table, args, "Table 1 — memory managers on the GPU (simulated)");
  if (!args.json.empty()) json.write(args.json);
  return 0;
}
