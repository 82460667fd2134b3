#include "core/warpagg.h"

#include <limits>

#include "core/alloc_config.h"

namespace gms::core {

const ConfigSchema<WarpAggSpec>& WarpAggSpec::config_schema() {
  static const auto schema = [] {
    constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
    ConfigSchema<WarpAggSpec> s;
    s.u64("enter", &WarpAggSpec::enter_cost, 0, kU32)
        .u64("exit", &WarpAggSpec::exit_cost, 0, kU32)
        .u64("dwell", &WarpAggSpec::dwell, 0, kU32)
        .u64("sample", &WarpAggSpec::sample_every, 1, kU32)
        .u64("probe", &WarpAggSpec::probe_every, 1, kU32)
        .u64("slab", &WarpAggSpec::slab_kb, 4, 262144, Pow2::kYes)
        .check([](const WarpAggSpec& w) {
          if (w.exit_cost >= w.enter_cost) {
            throw ConfigError(ConfigError::Kind::kOutOfRange, "exit",
                              "config field 'exit': hysteresis needs exit < "
                              "enter (got exit=" +
                                  std::to_string(w.exit_cost) + ", enter=" +
                                  std::to_string(w.enter_cost) + ")");
          }
        });
    return s;
  }();
  return schema;
}

const ConfigSchema<AggregationReport>& AggregationReport::schema() {
  static const auto schema = [] {
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    ConfigSchema<AggregationReport> s;
    s.u64("passthrough_calls", &AggregationReport::passthrough_calls, 0, kMax)
        .u64("groups_combined", &AggregationReport::groups_combined, 0, kMax)
        .u64("lanes_served", &AggregationReport::lanes_served, 0, kMax)
        .u64("slab_refills", &AggregationReport::slab_refills, 0, kMax)
        .u64("slab_group_carves", &AggregationReport::slab_group_carves, 0,
             kMax)
        .u64("solo_fallbacks", &AggregationReport::solo_fallbacks, 0, kMax)
        .u64("probes", &AggregationReport::probes, 0, kMax)
        .u64("switches_to_agg", &AggregationReport::switches_to_agg, 0, kMax)
        .u64("switches_to_pass", &AggregationReport::switches_to_pass, 0,
             kMax);
    return s;
  }();
  return schema;
}

std::string AggregationReport::to_string() const {
  return "[warpagg] " + format_config(schema().serialize(*this));
}

}  // namespace gms::core
