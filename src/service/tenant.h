#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gms::core {
template <typename C>
class ConfigSchema;
}  // namespace gms::core

namespace gms::service {

/// Typed admission verdict for one submitted batch. Never silent: every
/// non-admitted batch is returned to the caller with its verdict, counted
/// in the tenant's report, and (for shed/quota) recorded as a trace marker
/// — a shed request and a lost request are different failure stories.
enum class AdmitVerdict : std::uint8_t {
  kAdmitted,       ///< queued for its shard this round
  kOverByteQuota,  ///< projected outstanding bytes would exceed the quota
  kOverOpQuota,    ///< lifetime op quota exhausted
  kShed,           ///< overload: token bucket dry or round budget exceeded
};

/// Per-tenant admission policy: quotas are hard caps (typed rejection),
/// the token bucket is the overload valve (shed, resubmittable). All
/// counters are ops/bytes — never wall clock — so admission decisions
/// replay identically across runs.
struct TenantSpec {
  std::uint32_t id = 0;
  /// Shed order under overload: LOWEST priority sheds first; ties break on
  /// tenant id (deterministic total order).
  std::uint32_t priority = 0;
  /// Cap on outstanding (allocated minus freed) bytes. 0 = unlimited.
  std::uint64_t byte_quota = 0;
  /// Cap on lifetime submitted ops. 0 = unlimited.
  std::uint64_t op_quota = 0;
  /// Token bucket: capacity in ops, refilled by `bucket_refill` ops at the
  /// top of every admission round. 0 capacity = no bucket (never sheds).
  std::uint64_t bucket_capacity = 0;
  std::uint64_t bucket_refill = 0;
};

/// The service's admission knobs ("--quota '{bytes=N,ops=N,...}'"): the
/// per-tenant defaults plus the service-wide per-round op budget. Omitted
/// keys keep defaults (unlimited).
struct QuotaSpec {
  std::uint64_t byte_quota = 0;
  std::uint64_t op_quota = 0;
  std::uint64_t bucket_capacity = 0;
  std::uint64_t bucket_refill = 0;
  /// Service-wide ops admitted per round; excess sheds lowest-priority
  /// first. 0 = unlimited.
  std::uint64_t round_budget_ops = 0;

  /// Keys bytes|ops|bucket|refill|budget, each a decimal u64.
  static const core::ConfigSchema<QuotaSpec>& config_schema();
};

/// One allocation-stream operation. Slots are tenant-scoped handles (the
/// tenant never sees device pointers): a malloc binds its result to `slot`
/// on whichever shard executed it; a free resolves `slot` on the tenant's
/// CURRENT shard — after a failover re-shard, frees against slots that
/// died with the old device resolve to nothing and are absorbed as
/// orphaned frees (bounded loss, the killed-device analogue of a leaked
/// CUDA heap), never undefined behaviour.
struct AllocOp {
  enum class Kind : std::uint8_t { kMalloc, kFree };
  Kind kind = Kind::kMalloc;
  std::uint32_t slot = 0;
  std::uint32_t size = 0;  ///< malloc only
};

/// One stream-ordered unit of submission: executed as a single kernel
/// launch on the tenant's shard (one lane per op).
struct Batch {
  std::uint32_t tenant = 0;
  std::uint64_t tenant_seq = 0;  ///< position in the tenant's stream
  std::vector<AllocOp> ops;
};

/// Host-side accounting for one tenant, reported per run and used by the
/// truncation gate: submitted == completed + shed + quota_rejected +
/// unrecovered must hold for every tenant, or the service lost a batch
/// silently. Its fields are listed once, in schema().
struct TenantReport {
  std::uint32_t tenant = 0;
  std::uint64_t submitted_batches = 0;
  std::uint64_t completed_batches = 0;
  std::uint64_t shed_batches = 0;
  std::uint64_t quota_rejected_batches = 0;
  std::uint64_t unrecovered_batches = 0;
  std::uint64_t ops_ok = 0;
  std::uint64_t ops_failed = 0;       ///< kernel-visible failed mallocs
  std::uint64_t orphaned_frees = 0;   ///< slot died with a failed-over shard
  std::uint64_t retries = 0;          ///< batch re-executions
  std::uint64_t reshards = 0;         ///< shard reassignments
  std::uint64_t outstanding_bytes = 0;
  std::uint64_t lost_bytes = 0;       ///< outstanding on a dead shard

  /// The no-silent-truncation invariant.
  [[nodiscard]] bool accounted() const {
    return submitted_batches == completed_batches + shed_batches +
                                    quota_rejected_batches +
                                    unrecovered_batches;
  }

  bool operator==(const TenantReport&) const = default;
  static const core::ConfigSchema<TenantReport>& schema();
  /// "[tenant] {tenant=N,...}", every field in schema order, then
  /// " [UNACCOUNTED]" when the ledger does not balance.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace gms::service
