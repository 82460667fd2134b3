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
#include <atomic>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "alloc_core/resilient_manager.h"
#include "allocators/ouroboros.h"
#include "bench_common.h"
#include "core/json_writer.h"

namespace {

using namespace gms;

struct CellResult {
  double ms = 0;
  std::uint64_t mallocs = 0;
  std::uint64_t failed = 0;  ///< nullptrs the kernel saw (base runs)
  core::ResilienceReport rep;  ///< zeroed for base runs
  bool resilient = false;
  /// Ouroboros page-queue leakage (leaked_pages_host) after the churn
  /// drained; -1 for non-Ouroboros bases. The virtualized -VA/-VL variants
  /// must report 0 (the PR-7 exhaustion fix) and CI gates on it.
  std::int64_t leaked_pages = -1;
};

/// One fresh device + stack, one churn launch — the bench_warpagg kernel
/// shape (same size across the warp per round, malloc/store/free) so the
/// base_failed numbers line up with BENCH_warpagg.json. Warp-level-only
/// managers churn through warp_malloc + a per-round warp_free_all instead.
CellResult run_cell(const bench::BenchArgs& args, const std::string& spec,
                    unsigned rounds) {
  gpu::Device dev(args.heap_bytes() + (8u << 20),
                  gpu::GpuConfig{.num_sms = args.num_sms,
                                 .lane_stack_bytes = 32 * 1024,
                                 .watchdog_ms = args.watchdog_ms});
  auto stack = core::StackBuilder(dev).build(spec, args.heap_bytes());
  dev.launch(args.num_sms * 2, 256, [](gpu::ThreadCtx&) {});  // warm-up

  static constexpr std::size_t kSizes[4] = {32, 64, 128, 256};
  std::atomic<std::uint64_t> failed{0};
  core::MemoryManager& mgr = *stack.manager;
  const bool warp_only = mgr.traits().warp_level_only;

  const auto t0 = std::chrono::steady_clock::now();
  dev.launch(args.num_sms * 4, 256,
             [&mgr, &failed, rounds, warp_only](gpu::ThreadCtx& ctx) {
               for (unsigned r = 0; r < rounds; ++r) {
                 const std::size_t size = kSizes[r % 4];
                 void* p = warp_only ? mgr.warp_malloc(ctx, size)
                                     : mgr.malloc(ctx, size);
                 if (p == nullptr) {
                   failed.fetch_add(1, std::memory_order_relaxed);
                 } else {
                   *static_cast<std::uint32_t*>(p) = ctx.thread_rank();
                   if (!warp_only) mgr.free(ctx, p);
                 }
                 if (warp_only) mgr.warp_free_all(ctx);
               }
             });
  const auto t1 = std::chrono::steady_clock::now();

  CellResult res;
  res.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  res.mallocs = static_cast<std::uint64_t>(args.num_sms) * 4 * 256 * rounds;
  res.failed = failed.load();
  if (stack.resilient != nullptr) {
    res.rep = stack.resilient->report();
    res.resilient = true;
  }
  // The Ouroboros page-leak audit reads the base under every layer.
  if (auto* ouro = dynamic_cast<alloc::Ouroboros*>(stack.base)) {
    res.leaked_pages = static_cast<std::int64_t>(ouro->leaked_pages_host());
  }
  return res;
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
    CellResult base, res, res_fault;
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
        .num("base_leaked_pages", base.leaked_pages)
        .num("resilient_leaked_pages", res.leaked_pages)
        .num("fault_leaked_pages", res_fault.leaked_pages);
    // The virtualized Ouroboros queues (-VA/-VL) re-virtualize exhausted
    // pages instead of leaking them; any leak there is a regression of the
    // exhaustion fix and fails the bench like an unrecovered alloc.
    if (name.find("-VA") != std::string::npos ||
        name.find("-VL") != std::string::npos) {
      for (const auto leaked :
           {base.leaked_pages, res.leaked_pages, res_fault.leaked_pages}) {
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
