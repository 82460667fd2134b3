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

std::string TenantReport::to_string() const {
  std::string s = "tenant " + std::to_string(tenant) + ": submitted=" +
                  std::to_string(submitted_batches) +
                  " completed=" + std::to_string(completed_batches) +
                  " shed=" + std::to_string(shed_batches) +
                  " quota_rejected=" + std::to_string(quota_rejected_batches) +
                  " unrecovered=" + std::to_string(unrecovered_batches) +
                  " ops_ok=" + std::to_string(ops_ok) +
                  " ops_failed=" + std::to_string(ops_failed);
  if (orphaned_frees > 0) {
    s += " orphaned_frees=" + std::to_string(orphaned_frees);
  }
  if (retries > 0) s += " retries=" + std::to_string(retries);
  if (reshards > 0) s += " reshards=" + std::to_string(reshards);
  s += " outstanding=" + std::to_string(outstanding_bytes);
  if (lost_bytes > 0) s += " lost=" + std::to_string(lost_bytes);
  if (!accounted()) s += " [UNACCOUNTED]";
  return s;
}

}  // namespace gms::service
