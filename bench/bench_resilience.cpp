// Failure-recovery A/B: every base allocator against its "+R" resilient
// stack (ResilientManager, DESIGN.md §11) under the warp-agg convergent
// churn, then once more with a deterministic fault injector stacked between
// the recovery layer and the base ("resilient>fault{mode=nth,n=97}>NAME")
// so the retry / reserve-fallback / circuit-breaker chain demonstrably
// absorbs failures the base would surface as nullptr.
//
// The headline acceptance column is "+R unrecovered": the resilient stack
// must report ZERO unrecovered allocation failures for every manager, churn
// and fault rounds alike, and the binary exits non-zero otherwise — this is
// the robustness contract CI enforces. Emits BENCH_resilience.json.
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "churn_cell.h"
#include "core/json_writer.h"

namespace {

using namespace gms;

/// One convergent churn cell (churn_cell.h, bench_warpagg's kernel, so the
/// base_failed numbers line up with BENCH_warpagg.json).
bench::ChurnResult run_cell(const bench::BenchArgs& args,
                            const std::string& spec, unsigned rounds) {
  return bench::run_churn_cell(args, spec, bench::ChurnRegime::kConvergent,
                               rounds);
}

/// Ouroboros page-queue leakage after the churn drained; -1 for
/// non-Ouroboros bases. The virtualized -VA/-VL variants must report 0
/// (the PR-7 exhaustion fix) and the bench gates on it.
std::int64_t leaked_pages(const bench::ChurnResult& r) {
  return r.leaked_pages ? static_cast<std::int64_t>(*r.leaked_pages) : -1;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::parse_args(argc, argv);
  const unsigned rounds = args.iters != 0 ? args.iters : 16;
  // The fault round injects a deterministic every-Nth failure below the
  // recovery layer; the very next (retried) call succeeds, so this isolates
  // the retry path.
  const std::string fault = "fault{mode=nth,n=97}";
  const std::string resilient =
      "resilient" + core::format_config(core::ResilienceSpec::config_schema()
                                            .serialize(core::ResilienceSpec{}));

  std::vector<std::string> bases;
  for (const auto& name : args.allocators) {
    if (core::Registry::instance().find(name) == nullptr) continue;
    bases.push_back(name);
  }

  core::ResultTable table({"Allocator", "base failed", "+R unrecov",
                           "retries", "retry ok", "fallbacks", "trips",
                           "fault unrecov", "base ms", "+R ms"});
  core::BenchJson json("resilience");
  json.meta()
      .num("rounds", rounds)
      .num("num_sms", args.num_sms)
      .num("heap_bytes", args.heap_bytes())
      .str("fault", fault)
      .str("resilience", resilient);

  std::uint64_t total_unrecovered = 0;
  for (const auto& name : bases) {
    bench::ChurnResult base, res, res_fault;
    try {
      base = run_cell(args, name, rounds);
      res = run_cell(args, "resilient>" + name, rounds);
      res_fault = run_cell(args, "resilient>" + fault + ">" + name, rounds);
    } catch (const std::exception& e) {
      std::cerr << name << ": " << e.what() << "\n";
      table.add_row(
          {name, "err", "err", "-", "-", "-", "-", "-", "-", "-"});
      json.add_case().str("name", name).str("error", e.what());
      continue;
    }
    // The recovery contract: the kernel must never see nullptr from a "+R"
    // stack, and the layer itself must account every inner failure as
    // recovered. `failed` (kernel-observed) and `unrecovered` (layer
    // bookkeeping) must both be zero.
    const std::uint64_t unrec = res.rep.unrecovered + res.failed +
                                res_fault.rep.unrecovered + res_fault.failed;
    total_unrecovered += unrec;
    table.add_row({name, std::to_string(base.failed),
                   std::to_string(res.rep.unrecovered + res.failed),
                   std::to_string(res.rep.retries),
                   std::to_string(res.rep.retry_successes),
                   std::to_string(res.rep.fallback_allocs),
                   std::to_string(res.rep.breaker_trips),
                   std::to_string(res_fault.rep.unrecovered + res_fault.failed),
                   core::ResultTable::fmt_ms(base.ms),
                   core::ResultTable::fmt_ms(res.ms)});
    json.add_case()
        .str("name", name)
        .num("rounds", rounds)
        .num("mallocs", base.mallocs)
        .num("base_failed", base.failed)
        .num("base_ms", base.ms)
        .num("resilient_ms", res.ms)
        .num("kernel_visible_failures", res.failed)
        .report(res.rep)
        .report(res_fault.rep, "fault_")
        .num("fault_kernel_visible_failures", res_fault.failed)
        .num("base_leaked_pages", leaked_pages(base))
        .num("resilient_leaked_pages", leaked_pages(res))
        .num("fault_leaked_pages", leaked_pages(res_fault));
    // The virtualized Ouroboros queues (-VA/-VL) re-virtualize exhausted
    // pages instead of leaking them; any leak there is a regression of the
    // exhaustion fix and fails the bench like an unrecovered alloc.
    if (name.find("-VA") != std::string::npos ||
        name.find("-VL") != std::string::npos) {
      for (const auto leaked : {leaked_pages(base), leaked_pages(res),
                                leaked_pages(res_fault)}) {
        if (leaked > 0) {
          std::cerr << name << ": " << leaked
                    << " leaked pages on a virtualized queue variant\n";
          ++total_unrecovered;
        }
      }
    }
  }

  bench::emit(table, args,
              "Failure recovery — base vs \"+R\" stack, warp-agg churn + "
              "fault round (" + fault + "), " +
                  std::to_string(rounds) + " rounds/lane");
  if (!args.json.empty()) json.write(args.json);
  if (total_unrecovered != 0) {
    std::cerr << "FAIL: " << total_unrecovered
              << " unrecovered allocation failures / leaked-page "
                 "regressions under the \"+R\" stack\n";
    return 1;
  }
  std::cout << "\nall managers: 0 unrecovered allocation failures under "
               "\"resilient>\", 0 leaked pages on virtualized Ouroboros\n";
  return 0;
}
