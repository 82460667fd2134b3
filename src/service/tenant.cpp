#include "service/tenant.h"

#include "core/alloc_config.h"

namespace gms::service {

const core::ConfigSchema<QuotaSpec>& QuotaSpec::config_schema() {
  static const auto schema = [] {
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    core::ConfigSchema<QuotaSpec> s;
    s.u64("bytes", &QuotaSpec::byte_quota, 0, kMax)
        .u64("ops", &QuotaSpec::op_quota, 0, kMax)
        .u64("bucket", &QuotaSpec::bucket_capacity, 0, kMax)
        .u64("refill", &QuotaSpec::bucket_refill, 0, kMax)
        .u64("budget", &QuotaSpec::round_budget_ops, 0, kMax);
    return s;
  }();
  return schema;
}

const core::ConfigSchema<TenantReport>& TenantReport::schema() {
  static const auto schema = [] {
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    core::ConfigSchema<TenantReport> s;
    s.u64("tenant", &TenantReport::tenant, 0, ~std::uint32_t{0})
        .u64("submitted_batches", &TenantReport::submitted_batches, 0, kMax)
        .u64("completed_batches", &TenantReport::completed_batches, 0, kMax)
        .u64("shed_batches", &TenantReport::shed_batches, 0, kMax)
        .u64("quota_rejected_batches", &TenantReport::quota_rejected_batches,
             0, kMax)
        .u64("unrecovered_batches", &TenantReport::unrecovered_batches, 0,
             kMax)
        .u64("ops_ok", &TenantReport::ops_ok, 0, kMax)
        .u64("ops_failed", &TenantReport::ops_failed, 0, kMax)
        .u64("orphaned_frees", &TenantReport::orphaned_frees, 0, kMax)
        .u64("retries", &TenantReport::retries, 0, kMax)
        .u64("reshards", &TenantReport::reshards, 0, kMax)
        .u64("outstanding_bytes", &TenantReport::outstanding_bytes, 0, kMax)
        .u64("lost_bytes", &TenantReport::lost_bytes, 0, kMax);
    return s;
  }();
  return schema;
}

std::string TenantReport::to_string() const {
  return "[tenant] " + core::format_config(schema().serialize(*this)) +
         (accounted() ? "" : " [UNACCOUNTED]");
}

}  // namespace gms::service
