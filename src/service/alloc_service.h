#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/health.h"
#include "service/shard.h"
#include "service/shard_policy.h"
#include "service/tenant.h"
#include "trace/tenant_rollup.h"
#include "trace/trace_event.h"

namespace gms::service {

/// Service shape: the device fleet, the per-tenant admission defaults, the
/// health/failover policy. Everything a decision depends on is count-based
/// (rounds, batches, ops) so same-seed runs replay the identical shed and
/// failover marker sequence; only the reported timings differ.
struct ServiceSpec {
  unsigned num_devices = 2;
  DeviceShard::Options device;  ///< stack / heap / SMs / containment mode

  QuotaSpec quota;  ///< per-tenant admission defaults + round op budget

  ShardPolicy::Kind placement = ShardPolicy::Kind::kHash;
  std::uint64_t seed = 1;  ///< placement hash seed (the determinism knob)

  /// Health breaker: `health_threshold` consecutive crash/timeout/
  /// validation verdicts trip a device into draining; while tripped, every
  /// `health_decay`-th routing round elects one half-open revival probe.
  unsigned health_threshold = 2;
  std::uint64_t health_decay = 4;

  /// Re-execution budget per batch before it is declared unrecovered.
  unsigned batch_retries = 3;

  /// Fork-contained fallback device engaged when every shard is sick.
  /// Forked EAGERLY at construction, before any in-process Device spawns
  /// its SM threads — forking a process that already runs worker threads
  /// would clone locked mutexes.
  bool quarantine = true;

  /// Hard cap on coordinator rounds per run() (livelock backstop).
  std::uint64_t max_rounds = 100000;
};

/// One armed fault-injection hook: SIGKILL (forked) or poison (in-process)
/// shard `shard` once it has completed `after_batches` batches. Count-based
/// so the kill lands at the same stream position every run.
struct KillHook {
  unsigned shard = 0;
  std::uint64_t after_batches = 0;
  bool fired = false;
};

/// Full run report: per-tenant accounting plus the service-wide health and
/// marker telemetry. `accounted()` is the no-silent-truncation gate. Its
/// scalar fields are listed once, in schema().
struct ServiceReport {
  std::map<std::uint32_t, TenantReport> tenants;
  std::uint64_t rounds = 0;
  std::uint64_t batches_executed = 0;
  std::uint64_t health_trips = 0;
  std::uint64_t health_resets = 0;
  std::uint64_t quarantine_engages = 0;
  std::uint64_t kills_fired = 0;
  double wall_ms = 0;
  /// Submit-side latency of every executed batch (any verdict), in
  /// execution order — the bench derives p50/p99 from this.
  std::vector<double> batch_ms;
  trace::ServiceRollup rollup;  ///< marker count and digest of the log

  /// True iff every tenant's ledger balances (no batch vanished without a
  /// typed verdict).
  [[nodiscard]] bool accounted() const {
    for (const auto& [id, rep] : tenants) {
      if (!rep.accounted()) return false;
    }
    return true;
  }

  bool operator==(const ServiceReport&) const = default;
  /// The scalar fields (rounds ... wall_ms); tenants, batch_ms and rollup
  /// are not in it.
  static const core::ConfigSchema<ServiceReport>& schema();
  /// "[service] {rounds=N,...}", then one TenantReport line per tenant.
  [[nodiscard]] std::string to_string() const;
};

/// The multi-device allocation service (DESIGN.md §13): N DeviceShards
/// serving queued per-tenant allocation streams through batched rounds.
///
/// One coordinator round:
///   1. fire armed kill hooks whose batch thresholds are reached;
///   2. elect half-open probes for tripped shards (respawn + empty-batch
///      probe; success revives the shard and emits a reset marker);
///   3. refill token buckets, then admit at most one batch per tenant in
///      tenant-id order — quota violations are typed permanent rejections,
///      a dry bucket or a blown round budget sheds (lowest priority first,
///      ties on tenant id); retried batches bypass admission (they were
///      already admitted once — stream order, not double billing);
///   4. route each admitted batch to its tenant's shard, re-sharding
///      tenants whose shard is no longer routable (outstanding bytes on
///      the lost device become lost_bytes; their slots will surface as
///      orphaned frees); when no shard is routable, engage quarantine;
///   5. execute per-shard batch groups in parallel (one worker per shard,
///      round barrier);
///   6. fold results back in (shard, tenant) ascending order: verdicts
///      feed the health tracker (trip edges emit markers and start the
///      drain), failed batches stay at the FRONT of their tenant's queue
///      for bounded retry, successes commit slot and byte accounting.
///
/// All admission, shedding, routing and health decisions are functions of
/// counts and the placement seed — never wall clock — so the acceptance
/// gate can compare marker digests across same-seed reruns.
class AllocService {
 public:
  explicit AllocService(ServiceSpec spec);
  ~AllocService();

  AllocService(const AllocService&) = delete;
  AllocService& operator=(const AllocService&) = delete;

  /// Registers a tenant before any submission. Unknown-tenant submissions
  /// throw; duplicate ids throw.
  void add_tenant(const TenantSpec& spec);

  /// Registers `count` tenants with the spec's quota defaults, ids
  /// [0, count), priority = id (higher id = higher priority).
  void add_default_tenants(std::uint32_t count);

  /// Enqueues one stream-ordered batch for `tenant`. Returns the batch's
  /// tenant_seq. Admission happens later, in rounds — submission never
  /// blocks and never silently drops.
  std::uint64_t submit(std::uint32_t tenant, std::vector<AllocOp> ops);

  /// Arms a deterministic device-loss hook: shard `shard` is killed at the
  /// top of the first round where its completed-batch count reaches
  /// `after_batches`.
  void arm_kill(unsigned shard, std::uint64_t after_batches);

  /// Runs coordinator rounds until every tenant queue is drained (or the
  /// round cap trips, which marks the remainder unrecovered and is
  /// reported — never silent).
  ServiceReport run_until_drained();

  [[nodiscard]] const std::vector<trace::TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const HealthTracker& health() const { return health_; }
  [[nodiscard]] const ServiceSpec& spec() const { return spec_; }
  [[nodiscard]] DeviceShard& shard(unsigned i) { return *shards_[i]; }
  [[nodiscard]] unsigned num_shards() const {
    return static_cast<unsigned>(shards_.size());
  }

 private:
  struct TenantState {
    TenantSpec spec;
    std::deque<Batch> queue;
    std::uint64_t next_seq = 0;
    std::uint64_t bucket_tokens = 0;
    std::uint64_t ops_admitted = 0;    ///< lifetime, against op_quota
    unsigned front_attempts = 0;       ///< executions of the current front
    unsigned shard = 0;                ///< current placement
    bool placed = false;               ///< first batch routes lazily
    bool quarantined = false;          ///< currently on the fallback device
    std::uint64_t reshard_gen = 0;     ///< placement salt
    TenantReport report;
  };

  void emit(trace::EventKind kind, std::uint32_t tenant, std::uint32_t shard,
            std::uint64_t size, std::uint64_t offset);
  void fire_kill_hooks();
  void run_probes();
  /// Routes (or re-routes) `t` onto a routable shard, emitting reshard /
  /// quarantine markers and accounting lost bytes. Returns false when
  /// nothing is routable (not even quarantine).
  bool route_tenant(std::uint32_t id, TenantState& t);
  static std::uint64_t batch_alloc_bytes(const Batch& b);

  ServiceSpec spec_;
  std::vector<std::unique_ptr<DeviceShard>> shards_;  ///< [num_devices]
  std::unique_ptr<DeviceShard> quarantine_;  ///< id = num_devices, forked
  HealthTracker health_;
  ShardPolicy policy_;
  std::map<std::uint32_t, TenantState> tenants_;

  std::uint64_t round_ = 0;
  std::uint64_t event_seq_ = 0;
  std::uint64_t quarantine_engages_ = 0;
  std::uint64_t kills_fired_ = 0;
  bool quarantine_engaged_ = false;  ///< edge detector for the marker
  std::vector<KillHook> kill_hooks_;
  std::vector<trace::TraceEvent> events_;  ///< coordinator-side marker log
};

}  // namespace gms::service
