#include "core/resilience.h"

#include <limits>

#include "core/alloc_config.h"

namespace gms::core {

const ConfigSchema<ResilienceSpec>& ResilienceSpec::config_schema() {
  static const auto schema = [] {
    constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
    ConfigSchema<ResilienceSpec> s;
    s.u64("retries", &ResilienceSpec::retries, 0, kU32)
        .u64("backoff", &ResilienceSpec::backoff_base, 1, kU32)
        .u64("seed", &ResilienceSpec::seed, 0, ~std::uint64_t{0})
        .u64("reserve", &ResilienceSpec::reserve_percent, 1, 50)
        .u64("breaker", &ResilienceSpec::breaker_threshold, 1, kU32)
        .u64("decay", &ResilienceSpec::breaker_decay, 1, ~std::uint64_t{0});
    return s;
  }();
  return schema;
}

const ConfigSchema<ResilienceReport>& ResilienceReport::schema() {
  static const auto schema = [] {
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    ConfigSchema<ResilienceReport> s;
    s.u64("inner_failures", &ResilienceReport::inner_failures, 0, kMax)
        .u64("retries", &ResilienceReport::retries, 0, kMax)
        .u64("retry_successes", &ResilienceReport::retry_successes, 0, kMax)
        .u64("fallback_allocs", &ResilienceReport::fallback_allocs, 0, kMax)
        .u64("fallback_frees", &ResilienceReport::fallback_frees, 0, kMax)
        .u64("breaker_trips", &ResilienceReport::breaker_trips, 0, kMax)
        .u64("breaker_resets", &ResilienceReport::breaker_resets, 0, kMax)
        .u64("breaker_served", &ResilienceReport::breaker_served, 0, kMax)
        .u64("unrecovered", &ResilienceReport::unrecovered, 0, kMax)
        .u64("reserve_exhausted", &ResilienceReport::reserve_exhausted, 0,
             kMax)
        .u64("reserve_double_frees", &ResilienceReport::reserve_double_frees,
             0, kMax)
        .u64("reserve_invalid_frees",
             &ResilienceReport::reserve_invalid_frees, 0, kMax)
        .u64("reserve_used_bytes", &ResilienceReport::reserve_used_bytes, 0,
             kMax)
        .u64("reserve_capacity", &ResilienceReport::reserve_capacity, 0,
             kMax);
    return s;
  }();
  return schema;
}

std::string ResilienceReport::to_string() const {
  return "[resilience] " + format_config(schema().serialize(*this));
}

}  // namespace gms::core
