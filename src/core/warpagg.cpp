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

std::string AggregationReport::to_string() const {
  std::string s = "[warpagg] passthrough=" + std::to_string(passthrough_calls) +
                  " groups=" + std::to_string(groups_combined) +
                  " lanes=" + std::to_string(lanes_served) +
                  " slab_refills=" + std::to_string(slab_refills) +
                  " slab_carves=" + std::to_string(slab_group_carves) +
                  " solo=" + std::to_string(solo_fallbacks) +
                  " probes=" + std::to_string(probes);
  s += " switches=" + std::to_string(switches_to_agg) + "/" +
       std::to_string(switches_to_pass);
  return s;
}

}  // namespace gms::core
