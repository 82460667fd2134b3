// bench_service: throughput and failover behaviour of the multi-device
// AllocService (DESIGN.md §13).
//
// Two parts:
//   1. a devices × tenants sweep of clean malloc/free wave streams
//      (in-process shards), reporting req/s and batch latency percentiles
//      per cell;
//   2. the failover cell: fork-contained shards, one of which is SIGKILLed
//      mid-run by a count-based kill hook. The cell is a GATE, not just a
//      measurement — it exits non-zero when any tenant's ledger does not
//      balance (silent truncation), when any tenant ends unrecovered, or
//      when a same-seed rerun produces a different shed/failover marker
//      sequence (determinism). The marker log is committed as a .gmtrace
//      next to the JSON so CI archives the failure story itself.
//
// Usage: bench_service [--devices N] [--tenants N] [--quota '{k=v,...}']
//                      [--shed-policy hash|rr] [--smoke] [--json FILE]
//                      [--trace FILE.gmtrace] [--iters WAVES] [-t Alloc]
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/alloc_config.h"
#include "core/json_writer.h"
#include "service/alloc_service.h"
#include "trace/trace_format.h"

namespace gms::bench {
namespace {

using service::AllocOp;
using service::AllocService;
using service::ServiceSpec;

constexpr std::uint32_t kOpsPerBatch = 64;
constexpr std::uint32_t kAllocBytes = 256;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1) / 100.0);
  return v[idx];
}

/// What every cell shares. --quota and --shed-policy reach only this bench,
/// so their half of the CLI contract is checked here, before any cell runs:
/// one stderr line and exit 2, like parse_args.
ServiceSpec base_spec(const BenchArgs& args) {
  ServiceSpec spec;
  spec.device.stack = args.allocators.empty() ? std::string{"ScatterAlloc"}
                                              : args.allocators.front();
  spec.device.heap_bytes = args.heap_bytes();
  spec.device.num_sms = args.num_sms;
  spec.device.batch_deadline_s = args.deadline_s;
  try {
    spec.placement = service::ShardPolicy::parse_kind(args.shed_policy);
    spec.quota = service::QuotaSpec::config_schema().parse(
        core::parse_config_overrides(args.quota), service::QuotaSpec{});
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
  return spec;
}

void submit_waves(AllocService& svc, std::uint32_t tenants,
                  std::uint32_t waves) {
  for (std::uint32_t w = 0; w < waves; ++w) {
    for (std::uint32_t t = 0; t < tenants; ++t) {
      std::vector<AllocOp> m;
      std::vector<AllocOp> f;
      for (std::uint32_t i = 0; i < kOpsPerBatch; ++i) {
        const auto slot = w * kOpsPerBatch + i;
        m.push_back({AllocOp::Kind::kMalloc, slot, kAllocBytes});
        f.push_back({AllocOp::Kind::kFree, slot, 0});
      }
      svc.submit(t, std::move(m));
      svc.submit(t, std::move(f));
    }
  }
}

struct CellResult {
  service::ServiceReport report;
  std::uint64_t total_ops = 0;
};

CellResult run_cell(ServiceSpec spec, unsigned devices, unsigned tenants,
                    unsigned waves, bool forked, bool kill_one,
                    std::uint64_t seed,
                    std::vector<trace::TraceEvent>* events_out) {
  spec.num_devices = devices;
  spec.device.forked = forked;
  spec.quarantine = forked;  // fork-contained fallback only in forked mode
  spec.seed = seed;
  AllocService svc(spec);
  svc.add_default_tenants(tenants);
  submit_waves(svc, tenants, waves);
  if (kill_one) {
    // Count-based, so the device dies at the same stream position every
    // run: after it has completed roughly one third of its expected share.
    const std::uint64_t share =
        std::max<std::uint64_t>(1, 2ull * waves * tenants / devices / 3);
    svc.arm_kill(devices - 1, share);
  }
  CellResult out;
  out.report = svc.run_until_drained();
  for (const auto& [id, t] : out.report.tenants) {
    out.total_ops += t.ops_ok + t.ops_failed;
  }
  if (events_out != nullptr) *events_out = svc.events();
  return out;
}

int run(int argc, char** argv) {
  auto args = parse_args(argc, argv, "ScatterAlloc");
  const ServiceSpec base = base_spec(args);
  const unsigned waves = args.iters != 0 ? args.iters
                         : args.smoke    ? 8u
                                         : 24u;

  core::BenchJson json("service");
  json.meta()
      .str("stack", args.allocators.empty() ? std::string{"ScatterAlloc"}
                                            : args.allocators.front())
      .num("waves", waves)
      .num("ops_per_batch", kOpsPerBatch)
      .str("shed_policy", args.shed_policy)
      .str("quota", args.quota.empty() ? std::string{"unlimited"}
                                       : args.quota)
      .boolean("smoke", args.smoke);

  // ---- part 1: devices × tenants throughput sweep (in-process) ----------
  const std::vector<unsigned> device_counts =
      args.smoke ? std::vector<unsigned>{args.devices}
                 : std::vector<unsigned>{1, 2, 4};
  const std::vector<unsigned> tenant_counts =
      args.smoke ? std::vector<unsigned>{args.tenants}
                 : std::vector<unsigned>{2, 4, 8};
  for (const auto d : device_counts) {
    for (const auto t : tenant_counts) {
      const auto cell = run_cell(base, d, t, waves, /*forked=*/false,
                                 /*kill_one=*/false, 1, nullptr);
      const auto& rep = cell.report;
      if (!rep.accounted()) {
        std::cerr << "bench_service: UNACCOUNTED sweep cell d=" << d
                  << " t=" << t << "\n"
                  << rep.to_string() << "\n";
        return 3;
      }
      const double reqs_per_s =
          rep.wall_ms > 0 ? 1000.0 * static_cast<double>(cell.total_ops) /
                                rep.wall_ms
                          : 0;
      std::uint64_t shed = 0;
      for (const auto& [id, tt] : rep.tenants) shed += tt.shed_batches;
      std::cout << "sweep d=" << d << " t=" << t << " ops=" << cell.total_ops
                << " req/s=" << static_cast<std::uint64_t>(reqs_per_s)
                << " p99=" << percentile(rep.batch_ms, 99) << "ms"
                << " rounds=" << rep.rounds << "\n";
      json.add_case()
          .str("cell", "sweep")
          .num("devices", d)
          .num("tenants", t)
          .num("ops", cell.total_ops)
          .num("req_per_s", reqs_per_s, 1)
          .num("p50_ms", percentile(rep.batch_ms, 50), 4)
          .num("p99_ms", percentile(rep.batch_ms, 99), 4)
          .report(rep)
          .num("shed_batches", shed)
          .boolean("accounted", rep.accounted());
    }
  }

  // ---- part 2: the failover gate (forked shards, SIGKILL one) -----------
  const unsigned fo_devices = args.smoke ? std::max(2u, args.devices) : 4;
  const unsigned fo_tenants = args.smoke ? args.tenants : 8;
  const std::uint64_t fo_seed = 7;
  std::vector<trace::TraceEvent> events_a;
  std::vector<trace::TraceEvent> events_b;
  const auto a = run_cell(base, fo_devices, fo_tenants, waves, /*forked=*/true,
                          /*kill_one=*/true, fo_seed, &events_a);
  const auto b = run_cell(base, fo_devices, fo_tenants, waves, /*forked=*/true,
                          /*kill_one=*/true, fo_seed, &events_b);

  int exit_code = 0;
  const auto& rep = a.report;
  if (!rep.accounted()) {
    std::cerr << "bench_service: FAILOVER GATE: silent truncation — a batch "
                 "vanished without a typed verdict\n"
              << rep.to_string() << "\n";
    exit_code = 3;
  }
  if (rep.kills_fired != 1) {
    std::cerr << "bench_service: FAILOVER GATE: kill hook did not fire\n";
    exit_code = 3;
  }
  std::uint64_t unrecovered = 0;
  std::uint64_t reshards = 0;
  for (const auto& [id, t] : rep.tenants) {
    unrecovered += t.unrecovered_batches;
    reshards += t.reshards;
  }
  if (unrecovered != 0) {
    std::cerr << "bench_service: FAILOVER GATE: " << unrecovered
              << " unrecovered batches after the device loss\n"
              << rep.to_string() << "\n";
    exit_code = 3;
  }
  if (reshards == 0) {
    std::cerr << "bench_service: FAILOVER GATE: the kill produced no "
                 "re-shard — dead device's tenants never moved\n";
    exit_code = 3;
  }
  if (a.report.rollup.marker_digest != b.report.rollup.marker_digest ||
      a.report.rollup.service_markers != b.report.rollup.service_markers) {
    std::cerr << "bench_service: FAILOVER GATE: same-seed reruns disagree "
                 "(digest "
              << a.report.rollup.marker_digest << " vs "
              << b.report.rollup.marker_digest << ", markers "
              << a.report.rollup.service_markers << " vs "
              << b.report.rollup.service_markers << ")\n";
    exit_code = 3;
  }
  std::cout << "failover d=" << fo_devices << " t=" << fo_tenants
            << " trips=" << rep.health_trips << " resets=" << rep.health_resets
            << " reshards=" << reshards << " unrecovered=" << unrecovered
            << " digest=" << rep.rollup.marker_digest
            << (exit_code == 0 ? " [OK]" : " [FAILED]") << "\n";
  json.add_case()
      .str("cell", "failover")
      .num("devices", fo_devices)
      .num("tenants", fo_tenants)
      .num("ops", a.total_ops)
      .num("p99_ms", percentile(rep.batch_ms, 99), 4)
      .report(rep)
      .num("reshards", reshards)
      .num("unrecovered", unrecovered)
      .num("marker_digest", rep.rollup.marker_digest)
      .num("service_markers", rep.rollup.service_markers)
      .boolean("deterministic",
               a.report.rollup.marker_digest == b.report.rollup.marker_digest)
      .boolean("accounted", rep.accounted());

  // Commit the failover marker log: the shed/reshard/trip sequence IS the
  // telemetry (roll_up_tenants folds it back to the same marker count and
  // digest post-mortem). Note
  // EXPERIMENTS.md on pre-flush trace loss: the KILLED device's in-flight
  // device-side events die with it — this log is the coordinator's view,
  // which is exactly what survives a real device loss.
  if (!args.trace.empty()) {
    trace::TraceHeader hdr;
    hdr.heap_bytes = args.heap_bytes();
    hdr.arena_bytes = args.heap_bytes() + core::kArenaSlackBytes;
    hdr.num_sms = args.num_sms;
    hdr.warp_size = gpu::kWarpSize;
    hdr.set_allocator("service:" + (args.allocators.empty()
                                        ? std::string{"ScatterAlloc"}
                                        : args.allocators.front()));
    trace::write_trace(args.trace, hdr, events_a);
    std::cout << "failover markers -> " << args.trace << " ("
              << events_a.size() << " events)\n";
  }

  if (!args.json.empty()) {
    json.write(args.json);
    std::cout << "json -> " << args.json << "\n";
  }
  return exit_code;
}

}  // namespace
}  // namespace gms::bench

int main(int argc, char** argv) { return gms::bench::run(argc, argv); }
