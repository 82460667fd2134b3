// Ablation bench for the design choices DESIGN.md calls out. Each section
// moves exactly one knob of one manager's runtime Config (a "Name{k=v}"
// cell, validated against the manager's schema) and reruns an identical
// workload, so the contribution of that mechanism is visible in isolation:
//   A1 ScatterAlloc probe budget       (linear-probe cut-off per super block)
//   A2 ScatterAlloc region size        (pages per hashed region)
//   A3 Halloc early head replacement   (fill threshold across its range)
//   A4 Ouroboros chunk size            (8 / 16 / 32 KiB chunks)
//   A5 Reg-Eff pre-split ladder        (smallest chunk split off)
#include "bench_common.h"

#include "workloads/alloc_perf.h"

namespace {

using namespace gms;

struct Workload {
  std::size_t threads;
  std::size_t size;
  unsigned iters;
};

void run_case(core::ResultTable& table, const bench::BenchArgs& args,
              const std::string& cell, const Workload& wl) {
  bench::ManagedDevice md(args, cell);
  work::AllocPerfParams params;
  params.num_allocs = wl.threads;
  params.size = wl.size;
  params.iterations = wl.iters;
  const auto series = work::run_alloc_perf(md.dev(), md.mgr(), params);
  const double calls = static_cast<double>(wl.threads) * wl.iters;
  table.add_row(
      {cell, std::to_string(wl.size),
       series.failed_allocs == 0
           ? core::ResultTable::fmt_ms(series.alloc_summary().mean_ms)
           : "oom",
       core::ResultTable::fmt(
           static_cast<double>(series.alloc_counters.atomic_total()) / calls,
           2),
       core::ResultTable::fmt(
           static_cast<double>(series.alloc_counters.backoffs) / calls, 2)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gms;
  auto args = bench::parse_args(argc, argv);
  const Workload wl{args.threads ? args.threads : 8'192, 64,
                    args.iters ? args.iters : 3};

  core::ResultTable table(
      {"Configuration", "Bytes", "alloc ms", "atomics/alloc", "backoffs/alloc"});
  for (const char* cell : {
           "ScatterAlloc{probe_limit=32}",      // A1
           "ScatterAlloc{probe_limit=256}",
           "ScatterAlloc{probe_limit=1024}",
           "ScatterAlloc{pages_per_region=16}",  // A2
           "Halloc{head_replace_fill=0.5}",      // A3
           "Halloc{head_replace_fill=0.835}",
           "Halloc{head_replace_fill=0.99}",
           "Ouro-P-S{chunk_bytes=8192}",  // A4
           "Ouro-P-S{chunk_bytes=16384}",
           "Ouro-P-S{chunk_bytes=32768}",
           "RegEff-C{min_split_units=3}",  // A5
           "RegEff-C{min_split_units=16}",
           "RegEff-C{min_split_units=64}",
       }) {
    run_case(table, args, cell, wl);
  }

  bench::emit(table, args, "Ablations — one design knob at a time");
  return 0;
}
