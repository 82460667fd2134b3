// Multi-device AllocService tests (DESIGN.md §13): typed admission (quota
// rejection vs overload shedding), the verdict→health mapping and breaker
// reuse, deterministic tenant placement, failover after a mid-run device
// loss (in-process poison and fork+SIGKILL alike), quarantine engagement
// when the whole fleet is sick, the no-silent-truncation accounting gate,
// and marker-digest determinism across same-seed reruns.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/alloc_config.h"
#include "core/registry.h"
#include "service/alloc_service.h"
#include "service/health.h"
#include "service/shard_policy.h"
#include "service/tenant.h"
#include "trace/tenant_rollup.h"

namespace gms {
namespace {

using service::AllocOp;
using service::AllocService;
using service::ServiceSpec;
using service::ShardHealth;

struct RegisterAllocators {
  RegisterAllocators() { core::register_all_allocators(); }
};
const RegisterAllocators register_allocators;

/// A small spec sized for test latency: tiny devices, shallow streams.
ServiceSpec small_spec(unsigned devices, bool forked = false) {
  ServiceSpec spec;
  spec.num_devices = devices;
  spec.device.stack = "ScatterAlloc";
  spec.device.heap_bytes = 32u << 20;
  spec.device.num_sms = 2;
  spec.device.forked = forked;
  spec.quarantine = false;  // tests opt in explicitly
  return spec;
}

std::vector<AllocOp> mallocs(std::uint32_t first_slot, std::uint32_t count,
                             std::uint32_t size) {
  std::vector<AllocOp> ops;
  for (std::uint32_t i = 0; i < count; ++i) {
    ops.push_back({AllocOp::Kind::kMalloc, first_slot + i, size});
  }
  return ops;
}

/// The coordinator's markers of one kind, in emission order.
std::vector<trace::TraceEvent> markers(const AllocService& svc,
                                       trace::EventKind kind) {
  std::vector<trace::TraceEvent> out;
  for (const auto& ev : svc.events()) {
    if (ev.event_kind() == kind) out.push_back(ev);
  }
  return out;
}

std::vector<AllocOp> frees(std::uint32_t first_slot, std::uint32_t count) {
  std::vector<AllocOp> ops;
  for (std::uint32_t i = 0; i < count; ++i) {
    ops.push_back({AllocOp::Kind::kFree, first_slot + i, 0});
  }
  return ops;
}

/// Submits `waves` malloc+free wave pairs for every tenant.
void submit_waves(AllocService& svc, std::uint32_t tenants,
                  std::uint32_t waves, std::uint32_t ops_per_batch,
                  std::uint32_t size) {
  for (std::uint32_t w = 0; w < waves; ++w) {
    for (std::uint32_t t = 0; t < tenants; ++t) {
      svc.submit(t, mallocs(w * ops_per_batch, ops_per_batch, size));
      svc.submit(t, frees(w * ops_per_batch, ops_per_batch));
    }
  }
}

// ---- admission policy -----------------------------------------------------

TEST(QuotaSpec, ParsesAndRoundTrips) {
  const auto& schema = service::QuotaSpec::config_schema();
  const auto parse = [&](std::string_view braced) {
    return schema.parse(core::parse_config_overrides(braced),
                        service::QuotaSpec{});
  };
  const auto q =
      parse("{bytes=1048576,ops=500,bucket=64,refill=16,budget=256}");
  EXPECT_EQ(q.byte_quota, 1048576u);
  EXPECT_EQ(q.op_quota, 500u);
  EXPECT_EQ(q.bucket_capacity, 64u);
  EXPECT_EQ(q.bucket_refill, 16u);
  EXPECT_EQ(q.round_budget_ops, 256u);
  const auto text = core::format_config(schema.serialize(q));
  EXPECT_EQ(core::format_config(schema.serialize(parse(text))), text);
  EXPECT_THROW(parse("{bites=1}"), core::ConfigError);
  EXPECT_THROW(parse("{bytes=}"), core::ConfigError);
  EXPECT_THROW(parse("{ops=0x10}"), core::ConfigError);
}

TEST(ShardPolicyTest, DeterministicAndSaltSensitive) {
  const service::ShardPolicy hash(service::ShardPolicy::Kind::kHash, 42);
  const std::vector<unsigned> healthy{0, 1, 2, 3};
  for (std::uint32_t t = 0; t < 64; ++t) {
    EXPECT_EQ(hash.pick(t, healthy, 0), hash.pick(t, healthy, 0));
  }
  // Bumping the salt moves at least one tenant (failover re-placement).
  bool moved = false;
  for (std::uint32_t t = 0; t < 64 && !moved; ++t) {
    moved = hash.pick(t, healthy, 0) != hash.pick(t, healthy, 1);
  }
  EXPECT_TRUE(moved);
  const service::ShardPolicy rr(service::ShardPolicy::Kind::kRoundRobin, 0);
  EXPECT_EQ(rr.pick(5, healthy, 0), 1u);
  EXPECT_THROW((void)hash.pick(0, {}, 0), std::logic_error);
}

// ---- verdict -> health mapping -------------------------------------------

TEST(HealthTrackerTest, OomIsCapacityNotHealth) {
  service::HealthTracker h(1, /*threshold=*/2, /*decay=*/4);
  EXPECT_FALSE(h.record(0, core::Verdict::kCrash));
  // An interleaved OOM neither resets nor extends the failure streak.
  EXPECT_FALSE(h.record(0, core::Verdict::kOom));
  EXPECT_TRUE(h.record(0, core::Verdict::kTimeout));  // 2nd failure: trip
  EXPECT_EQ(h.health(0), ShardHealth::kDraining);
  h.mark_dead(0);
  EXPECT_EQ(h.health(0), ShardHealth::kDead);
  EXPECT_TRUE(h.revive(0));
  EXPECT_EQ(h.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(h.trips(0), 1u);
  EXPECT_EQ(h.resets(0), 1u);
}

TEST(HealthTrackerTest, SuccessResetsTheStreak) {
  service::HealthTracker h(2, 3, 4);
  EXPECT_FALSE(h.record(1, core::Verdict::kCrash));
  EXPECT_FALSE(h.record(1, core::Verdict::kCrash));
  EXPECT_FALSE(h.record(1, core::Verdict::kOk));  // streak cleared
  EXPECT_FALSE(h.record(1, core::Verdict::kCrash));
  EXPECT_FALSE(h.record(1, core::Verdict::kCrash));
  EXPECT_TRUE(h.record(1, core::Verdict::kValidationError));
  EXPECT_EQ(h.healthy_shards(), (std::vector<unsigned>{0}));
  EXPECT_EQ(h.verdict_count(1, core::Verdict::kCrash), 4u);
}

// ---- the service proper ---------------------------------------------------

TEST(AllocServiceTest, DrainsCleanStreamsWithFullAccounting) {
  AllocService svc(small_spec(2));
  svc.add_default_tenants(4);
  submit_waves(svc, 4, /*waves=*/3, /*ops_per_batch=*/64, /*size=*/256);
  const auto rep = svc.run_until_drained();
  EXPECT_TRUE(rep.accounted()) << rep.to_string();
  for (const auto& [id, t] : rep.tenants) {
    EXPECT_EQ(t.submitted_batches, 6u);
    EXPECT_EQ(t.completed_batches, 6u);
    EXPECT_EQ(t.unrecovered_batches, 0u);
    EXPECT_EQ(t.outstanding_bytes, 0u) << "tenant " << id;
    EXPECT_EQ(t.orphaned_frees, 0u);
  }
  EXPECT_EQ(rep.health_trips, 0u);
}

TEST(AllocServiceTest, ByteQuotaRejectsTyped) {
  auto spec = small_spec(1);
  spec.quota.byte_quota = 64u * 1024;  // one 64-op * 256 B wave is 16 KiB
  AllocService svc(spec);
  svc.add_default_tenants(1);
  // Five malloc-only batches of 16 KiB: the 5th would push outstanding
  // past 64 KiB and must be rejected, not shed and not executed.
  for (std::uint32_t w = 0; w < 5; ++w) {
    svc.submit(0, mallocs(w * 64, 64, 256));
  }
  const auto rep = svc.run_until_drained();
  ASSERT_TRUE(rep.accounted()) << rep.to_string();
  const auto& t = rep.tenants.at(0);
  EXPECT_EQ(t.completed_batches, 4u);
  EXPECT_EQ(t.quota_rejected_batches, 1u);
  EXPECT_EQ(t.shed_batches, 0u);
  EXPECT_EQ(markers(svc, trace::EventKind::kQuotaReject).size(), 1u);
}

TEST(AllocServiceTest, OpQuotaCapsLifetimeOps) {
  auto spec = small_spec(1);
  spec.quota.op_quota = 128;  // two 64-op batches
  AllocService svc(spec);
  svc.add_default_tenants(1);
  for (std::uint32_t w = 0; w < 4; ++w) {
    svc.submit(0, mallocs(w * 64, 64, 64));
  }
  const auto rep = svc.run_until_drained();
  ASSERT_TRUE(rep.accounted());
  EXPECT_EQ(rep.tenants.at(0).completed_batches, 2u);
  EXPECT_EQ(rep.tenants.at(0).quota_rejected_batches, 2u);
}

TEST(AllocServiceTest, RoundBudgetShedsLowestPriorityFirst) {
  auto spec = small_spec(1);
  spec.quota.round_budget_ops = 128;  // room for two 64-op batches a round
  AllocService svc(spec);
  svc.add_default_tenants(3);  // priority == id: tenant 0 sheds first
  for (std::uint32_t t = 0; t < 3; ++t) {
    svc.submit(t, mallocs(0, 64, 64));
  }
  const auto rep = svc.run_until_drained();
  ASSERT_TRUE(rep.accounted()) << rep.to_string();
  EXPECT_EQ(rep.tenants.at(0).shed_batches, 1u);
  EXPECT_EQ(rep.tenants.at(0).completed_batches, 0u);
  EXPECT_EQ(rep.tenants.at(1).completed_batches, 1u);
  EXPECT_EQ(rep.tenants.at(2).completed_batches, 1u);
  const auto shed = markers(svc, trace::EventKind::kTenantShed);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].thread_rank, 0u);  // the tenant
  EXPECT_EQ(shed[0].size, 64u);        // its ops

}

TEST(AllocServiceTest, TokenBucketShedsAFloodingTenantOnly) {
  auto spec = small_spec(1);
  spec.quota.bucket_capacity = 64;
  spec.quota.bucket_refill = 64;  // exactly one 64-op batch per round
  AllocService svc(spec);
  svc.add_default_tenants(2);
  // Tenant 0 floods two batches per round's worth; tenant 1 stays inside
  // its bucket. Only the flood sheds.
  for (std::uint32_t w = 0; w < 4; ++w) {
    svc.submit(0, mallocs(w * 128, 128, 64));  // 128 ops > 64-token bucket
    svc.submit(1, mallocs(w * 64, 64, 64));
  }
  const auto rep = svc.run_until_drained();
  ASSERT_TRUE(rep.accounted()) << rep.to_string();
  EXPECT_EQ(rep.tenants.at(0).shed_batches, 4u);
  EXPECT_EQ(rep.tenants.at(0).completed_batches, 0u);
  EXPECT_EQ(rep.tenants.at(1).shed_batches, 0u);
  EXPECT_EQ(rep.tenants.at(1).completed_batches, 4u);
}

TEST(AllocServiceTest, InProcessKillFailsOverAndAccountsLoss) {
  auto spec = small_spec(2);
  spec.batch_retries = 4;
  AllocService svc(spec);
  svc.add_default_tenants(4);
  submit_waves(svc, 4, /*waves=*/4, /*ops_per_batch=*/32, /*size=*/256);
  svc.arm_kill(0, /*after_batches=*/4);
  const auto rep = svc.run_until_drained();
  ASSERT_TRUE(rep.accounted()) << rep.to_string();
  EXPECT_EQ(rep.kills_fired, 1u);
  EXPECT_GE(rep.health_trips, 1u);
  std::uint64_t reshards = 0;
  for (const auto& [id, t] : rep.tenants) {
    EXPECT_EQ(t.unrecovered_batches, 0u)
        << "tenant " << id << ": " << t.to_string();
    EXPECT_EQ(t.completed_batches + t.shed_batches + t.quota_rejected_batches,
              t.submitted_batches);
    reshards += t.reshards;
  }
  EXPECT_GE(reshards, 1u);  // somebody lived on shard 0 and moved off it
  // The marker log and the report agree.
  EXPECT_GE(markers(svc, trace::EventKind::kShardHealthTrip).size(), 1u);
  EXPECT_EQ(rep.rollup.service_markers, svc.events().size());
}

TEST(AllocServiceTest, ForkedSigkillFailoverDeterministicDigest) {
  auto run_once = [](bool kill) {
    auto spec = small_spec(2, /*forked=*/true);
    spec.seed = 7;
    spec.batch_retries = 4;
    spec.device.batch_deadline_s = 30;
    AllocService svc(spec);
    svc.add_default_tenants(4);
    submit_waves(svc, 4, /*waves=*/3, /*ops_per_batch=*/32, /*size=*/256);
    if (kill) svc.arm_kill(1, /*after_batches=*/3);
    return svc.run_until_drained();
  };
  const auto a = run_once(true);
  ASSERT_TRUE(a.accounted()) << a.to_string();
  EXPECT_EQ(a.kills_fired, 1u);
  for (const auto& [id, t] : a.tenants) {
    EXPECT_EQ(t.unrecovered_batches, 0u)
        << "tenant " << id << ": " << t.to_string();
  }
  // Same seed, same kill point -> the identical shed/failover marker
  // sequence (the acceptance gate's determinism check).
  const auto b = run_once(true);
  EXPECT_EQ(a.rollup.marker_digest, b.rollup.marker_digest);
  EXPECT_EQ(a.rollup.service_markers, b.rollup.service_markers);
  // And the kill actually changes the story vs an undisturbed run.
  const auto c = run_once(false);
  EXPECT_NE(a.rollup.marker_digest, c.rollup.marker_digest);
}

TEST(AllocServiceTest, QuarantineServesWhenWholeFleetIsDown) {
  auto spec = small_spec(1, /*forked=*/true);
  spec.quarantine = true;
  spec.health_threshold = 1;
  spec.health_decay = 1u << 20;  // probes effectively never elected
  spec.batch_retries = 8;
  AllocService svc(spec);
  svc.add_default_tenants(2);
  submit_waves(svc, 2, /*waves=*/2, /*ops_per_batch=*/16, /*size=*/256);
  svc.arm_kill(0, /*after_batches=*/1);
  const auto rep = svc.run_until_drained();
  ASSERT_TRUE(rep.accounted()) << rep.to_string();
  EXPECT_EQ(rep.quarantine_engages, 1u);
  EXPECT_EQ(markers(svc, trace::EventKind::kQuarantineEngage).size(), 1u);
  for (const auto& [id, t] : rep.tenants) {
    EXPECT_EQ(t.unrecovered_batches, 0u)
        << "tenant " << id << ": " << t.to_string();
  }
}

TEST(AllocServiceTest, NoRouteConvergesToUnrecoveredNotLivelock) {
  auto spec = small_spec(1);
  spec.quarantine = false;
  spec.health_threshold = 1;
  spec.health_decay = 1u << 20;
  spec.batch_retries = 2;
  AllocService svc(spec);
  svc.add_default_tenants(1);
  svc.submit(0, mallocs(0, 8, 256));
  svc.submit(0, mallocs(8, 8, 256));
  svc.arm_kill(0, /*after_batches=*/0);  // dead before the first round
  const auto rep = svc.run_until_drained();
  ASSERT_TRUE(rep.accounted()) << rep.to_string();
  EXPECT_EQ(rep.tenants.at(0).completed_batches, 0u);
  EXPECT_EQ(rep.tenants.at(0).unrecovered_batches, 2u);
  EXPECT_LT(rep.rounds, 64u);  // bounded retry, not a spin
}

TEST(AllocServiceTest, SubmitValidation) {
  AllocService svc(small_spec(1));
  svc.add_default_tenants(1);
  EXPECT_THROW(svc.submit(9, {}), std::invalid_argument);
  EXPECT_THROW(svc.add_tenant(service::TenantSpec{.id = 0}),
               std::invalid_argument);
  EXPECT_THROW(svc.arm_kill(5, 0), std::invalid_argument);
  EXPECT_EQ(svc.submit(0, mallocs(0, 4, 64)), 0u);
  EXPECT_EQ(svc.submit(0, frees(0, 4)), 1u);
}

// ---- rollup determinism over a committed marker log -----------------------

TEST(TenantRollupTest, FoldsOnlyServiceMarkers) {
  std::vector<trace::TraceEvent> events;
  auto push = [&](trace::EventKind k, std::uint32_t tenant,
                  std::uint64_t size) {
    trace::TraceEvent ev;
    ev.kind = static_cast<std::uint8_t>(k);
    ev.thread_rank = tenant;
    ev.size = size;
    events.push_back(ev);
  };
  push(trace::EventKind::kMalloc, 0, 64);  // not a service marker: skipped
  push(trace::EventKind::kTenantShed, 3, 32);
  push(trace::EventKind::kQuotaReject, 3, 4096);
  push(trace::EventKind::kShardHealthTrip, 1, 0);
  push(trace::EventKind::kShardHealthReset, 1, 0);
  push(trace::EventKind::kQuarantineEngage, 2, 0);
  const auto roll = trace::roll_up_tenants(events);
  EXPECT_EQ(roll.service_markers, 5u);
  // Identical logs hash identically; dropping a marker changes the hash.
  EXPECT_EQ(roll.marker_digest, trace::roll_up_tenants(events).marker_digest);
  auto truncated = events;
  truncated.pop_back();
  EXPECT_NE(roll.marker_digest,
            trace::roll_up_tenants(truncated).marker_digest);
}

}  // namespace
}  // namespace gms
