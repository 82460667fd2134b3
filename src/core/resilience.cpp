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

std::string ResilienceReport::to_string() const {
  std::string s = "[resilience] inner_failures=" +
                  std::to_string(inner_failures) +
                  " retries=" + std::to_string(retries) +
                  " retry_successes=" + std::to_string(retry_successes) +
                  " fallback_allocs=" + std::to_string(fallback_allocs) +
                  " fallback_frees=" + std::to_string(fallback_frees) +
                  " breaker_trips=" + std::to_string(breaker_trips) +
                  " breaker_resets=" + std::to_string(breaker_resets) +
                  " unrecovered=" + std::to_string(unrecovered);
  s += " reserve_used=" + std::to_string(reserve_used_bytes) + "/" +
       std::to_string(reserve_capacity);
  if (reserve_double_frees > 0) {
    s += " double_frees=" + std::to_string(reserve_double_frees);
  }
  if (reserve_invalid_frees > 0) {
    s += " invalid_frees=" + std::to_string(reserve_invalid_frees);
  }
  return s;
}

}  // namespace gms::core
