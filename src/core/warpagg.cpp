#include "core/warpagg.h"

#include <bit>
#include <charconv>
#include <stdexcept>

namespace gms::core {

namespace {

std::uint64_t parse_u64(std::string_view key, std::string_view val) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(val.data(), val.data() + val.size(), out);
  if (ec != std::errc{} || ptr != val.data() + val.size()) {
    throw std::invalid_argument{"bad warpagg value for " + std::string(key) +
                                ": \"" + std::string(val) + "\""};
  }
  return out;
}

}  // namespace

WarpAggSpec WarpAggSpec::parse(std::string_view spec) {
  WarpAggSpec out;
  std::size_t pos = 0;
  bool first = true;
  while (pos < spec.size()) {
    auto comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const auto tok = spec.substr(pos, comma - pos);
    const auto eq = tok.find('=');
    if (eq == std::string_view::npos) {
      // A bare token is the policy; only legal as the first token.
      if (!first) {
        throw std::invalid_argument{"bad warpagg token: \"" +
                                    std::string(tok) +
                                    "\" (expected key=value)"};
      }
      if (tok == "adaptive") {
        out.policy = Policy::kAdaptive;
      } else if (tok == "always") {
        out.policy = Policy::kAlways;
      } else {
        throw std::invalid_argument{
            "unknown warpagg policy: \"" + std::string(tok) +
            "\" (expected adaptive|always)"};
      }
    } else {
      if (eq == 0 || eq + 1 >= tok.size()) {
        throw std::invalid_argument{"bad warpagg token: \"" +
                                    std::string(tok) +
                                    "\" (expected key=value)"};
      }
      const auto key = tok.substr(0, eq);
      const auto val = tok.substr(eq + 1);
      if (key == "enter") {
        out.enter_cost = static_cast<std::uint32_t>(parse_u64(key, val));
      } else if (key == "exit") {
        out.exit_cost = static_cast<std::uint32_t>(parse_u64(key, val));
      } else if (key == "dwell") {
        out.dwell = static_cast<std::uint32_t>(parse_u64(key, val));
      } else if (key == "sample") {
        out.sample_every = static_cast<std::uint32_t>(parse_u64(key, val));
        if (out.sample_every == 0) {
          throw std::invalid_argument{"warpagg sample must be >= 1"};
        }
      } else if (key == "probe") {
        out.probe_every = static_cast<std::uint32_t>(parse_u64(key, val));
        if (out.probe_every == 0) {
          throw std::invalid_argument{"warpagg probe must be >= 1"};
        }
      } else if (key == "slab") {
        out.slab_kb = static_cast<std::uint32_t>(parse_u64(key, val));
        if (out.slab_kb < 4 || out.slab_kb > 262144 ||
            !std::has_single_bit(out.slab_kb)) {
          throw std::invalid_argument{
              "warpagg slab must be a power of two in [4, 262144] KiB"};
        }
      } else {
        throw std::invalid_argument{
            "unknown warpagg key: \"" + std::string(key) +
            "\" (expected enter|exit|dwell|sample|probe|slab)"};
      }
    }
    first = false;
    pos = comma + 1;
  }
  if (out.exit_cost >= out.enter_cost &&
      out.policy == Policy::kAdaptive) {
    throw std::invalid_argument{
        "warpagg hysteresis needs exit < enter (got exit=" +
        std::to_string(out.exit_cost) +
        ", enter=" + std::to_string(out.enter_cost) + ")"};
  }
  return out;
}

std::string WarpAggSpec::to_string() const {
  const char* pol = policy == Policy::kAdaptive ? "adaptive" : "always";
  return std::string(pol) + ",enter=" + std::to_string(enter_cost) +
         ",exit=" + std::to_string(exit_cost) +
         ",dwell=" + std::to_string(dwell) +
         ",sample=" + std::to_string(sample_every) +
         ",probe=" + std::to_string(probe_every) +
         ",slab=" + std::to_string(slab_kb);
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
