// service: the AllocService coordinator with 2 in-process shards of 1 SM
// and 8 tenants. Each tenant keeps one batch in flight per round (a closed
// loop of 8 clients). A batch holds 2,048 mallocs of seeded 16 B .. 1 KiB
// sizes plus the frees of the tenant's previous wave, so a live set
// persists. The service starts one thread per shard every round, and each
// batch wakes its shard's SM thread; 4,096-op batches keep both a small part
// of each round.
#include "bench.h"
#include "core/registry.h"
#include "core/utils.h"
#include "service/alloc_service.h"

namespace perfbench {

namespace service = gms::service;

namespace {

constexpr unsigned kShards = 2;
constexpr unsigned kSms = 1;
constexpr std::uint32_t kTenants = 8;
constexpr std::uint32_t kOpsPerWave = 2048;
constexpr std::uint32_t kWaves = 8;  ///< per tenant and pass
constexpr std::uint32_t kSizeMin = 16, kSizeMax = 1024;
constexpr std::size_t kHeap = std::size_t{64} << 20;

/// The batches of one pass: per tenant, wave w frees wave w-1's slots and
/// mallocs wave w's, alternating between two slot banks; a final batch
/// frees the last wave.
std::vector<std::vector<std::vector<service::AllocOp>>> make_batches(
    std::uint64_t seed) {
  using Op = service::AllocOp;
  std::vector<std::vector<std::vector<Op>>> out(kTenants);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    core::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + t + 1);
    for (std::uint32_t w = 0; w <= kWaves; ++w) {
      std::vector<Op> ops;
      ops.reserve(2 * kOpsPerWave);
      if (w > 0) {
        const std::uint32_t bank = (w - 1) % 2 * kOpsPerWave;
        for (std::uint32_t i = 0; i < kOpsPerWave; ++i) {
          ops.push_back({Op::Kind::kFree, bank + i, 0});
        }
      }
      if (w < kWaves) {
        const std::uint32_t bank = w % 2 * kOpsPerWave;
        for (std::uint32_t i = 0; i < kOpsPerWave; ++i) {
          ops.push_back({Op::Kind::kMalloc, bank + i,
                         static_cast<std::uint32_t>(
                             rng.range(kSizeMin, kSizeMax))});
        }
      }
      out[t].push_back(std::move(ops));
    }
  }
  return out;
}

}  // namespace

Report run_service(Run& run) {
  core::register_all_allocators();
  std::vector<double> batch_ms, round_ms, exec_share;
  std::uint64_t rounds = 0;

  auto workload_span = run.spans.open("bench", "service");
  while (run.next_pass()) {
    auto cell_span = run.spans.open("bench", "cell");
    auto svc = run.setup("service", [&] {
      service::ServiceSpec spec;
      spec.num_devices = kShards;
      spec.device.stack = "ScatterAlloc";
      spec.device.heap_bytes = kHeap;
      spec.device.num_sms = kSms;
      spec.quarantine = false;  // no forked shards
      // Round-robin puts 4 tenants on each shard whatever the seed; a
      // seeded hash can load one shard with 6 and double the round time.
      spec.placement = service::ShardPolicy::Kind::kRoundRobin;
      auto s = std::make_unique<service::AllocService>(spec);
      s->add_default_tenants(kTenants);
      auto batches = make_batches(run.opt.seed);
      for (std::uint32_t t = 0; t < kTenants; ++t) {
        for (auto& ops : batches[t]) s->submit(t, std::move(ops));
      }
      return s;
    });

    service::ServiceReport rep;
    {
      auto s = run.spans.open("service", "run_until_drained");
      rep = svc->run_until_drained();
    }
    check(rep.accounted(), "service: a tenant ledger does not balance");
    std::uint64_t ops = 0;
    for (const auto& [id, t] : rep.tenants) {
      // An unrecovered batch would count all its ops as failed; the run
      // fails before any metric prints instead.
      check(t.unrecovered_batches == 0,
            "service: tenant " + std::to_string(id) + " lost a batch");
      check(t.ops_failed == 0,
            "service: tenant " + std::to_string(id) + " saw a failed malloc");
      ops += t.ops_ok + t.ops_failed;
      run.failed_mallocs += t.ops_failed;
    }
    run.mallocs += std::uint64_t{kTenants} * kWaves * kOpsPerWave;
    run.throughput.add("service", static_cast<double>(ops), rep.wall_ms / 1e3);
    batch_ms.insert(batch_ms.end(), rep.batch_ms.begin(), rep.batch_ms.end());
    rounds = rep.rounds;
    round_ms.push_back(rep.wall_ms / static_cast<double>(rep.rounds));
    double busy = 0;
    for (const double b : rep.batch_ms) busy += b;
    exec_share.push_back(exec_share_pct(busy, rep.wall_ms, kShards));
  }

  Report out;
  out.attempted = run.mallocs;
  out.failed = run.failed_mallocs;
  add_common_metrics(out, run, median(batch_ms));
  add_tail(out, "service.batch_tail", batch_ms);
  out.add("service.exec_share_pct", median(exec_share), "%");
  out.add("service.ms_per_round", median(round_ms), "ms");
  out.add("service.rounds", static_cast<double>(rounds), "count");
  // A shard runs each batch as one kernel with one lane per op.
  if (run.opt.trace) add_launch_floor(out, run, kSms, 2 * kOpsPerWave, batch_ms);
  return out;
}

}  // namespace perfbench
