#include "core/stack_spec.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "core/fault_inject.h"
#include "core/resilience.h"
#include "core/warpagg.h"

namespace gms::core {

namespace {

struct StageToken {
  std::string_view name;
  std::string_view suffix;  ///< identity suffix; empty for observers
};

/// Indexed by StackSpec::Stage: the one table of stage tokens and of the
/// name suffixes that spell the behaviour-changing stages on a base.
constexpr StageToken kStages[] = {{"trace", ""},
                                  {"fault", ""},
                                  {"validate", "+V"},
                                  {"warpagg", "+W"},
                                  {"resilient", "+R"}};

template <typename Pred>
const StageToken* find_stage(Pred pred) {
  const auto* it = std::find_if(std::begin(kStages), std::end(kStages), pred);
  return it == std::end(kStages) ? nullptr : it;
}

StackSpec::Stage stage_of(const StageToken* t) {
  return static_cast<StackSpec::Stage>(t - std::begin(kStages));
}

/// Applies `overrides` over the stage's defaults through its schema (throws
/// ConfigError).
template <typename Spec>
void check_schema(const ConfigKV& overrides) {
  (void)Spec::config_schema().parse(overrides, Spec{});
}

}  // namespace

std::string_view StackSpec::stage_name(Stage s) {
  return kStages[static_cast<std::uint8_t>(s)].name;
}

std::string_view StackSpec::suffix(Stage s) {
  return kStages[static_cast<std::uint8_t>(s)].suffix;
}

void StackSpec::check_knobs(Stage stage, const ConfigKV& config) {
  switch (stage) {
    case Stage::kFault:
      return check_schema<FaultSpec>(config);
    case Stage::kWarpAgg:
      return check_schema<WarpAggSpec>(config);
    case Stage::kResilient:
      return check_schema<ResilienceSpec>(config);
    case Stage::kTrace:
    case Stage::kValidate:
      break;
  }
  if (config.empty()) return;
  const std::string name(stage_name(stage));
  throw ConfigError(ConfigError::Kind::kNotConfigurable, name,
                    "stack stage '" + name + "' takes no config overrides");
}

bool StackSpec::has(Stage s) const {
  return std::any_of(stages.begin(), stages.end(),
                     [s](const Layer& l) { return l.stage == s; });
}

std::string StackSpec::to_string() const {
  std::string out;
  for (const Layer& l : stages) {
    out += std::string(stage_name(l.stage)) + format_config(l.config) + ">";
  }
  if (base.empty() && !out.empty()) out.pop_back();  // stage-only spec
  return out + base + format_config(base_config);
}

StackSpec StackSpec::parse(std::string_view spec) {
  StackSpec out;
  const auto add = [&out](Stage stage, ConfigKV config) {
    if (out.has(stage)) {
      throw std::invalid_argument{"duplicate stack stage: " +
                                  std::string(stage_name(stage))};
    }
    check_knobs(stage, config);  // a bad knob fails the parse, not a build
    out.stages.push_back({stage, std::move(config)});
  };
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto gt = spec.find('>', pos);
    const auto tok = spec.substr(
        pos, gt == std::string_view::npos ? spec.size() - pos : gt - pos);
    const bool last = gt == std::string_view::npos;
    if (tok.empty()) {
      throw std::invalid_argument{"empty token in stack spec: \"" +
                                  std::string(spec) + "\""};
    }
    auto [name, braced] = split_config_suffix(tok);
    if (const auto* t = find_stage(
            [name = name](const StageToken& s) { return s.name == name; })) {
      add(stage_of(t), parse_config_overrides(braced));
    } else {
      if (!last) {
        throw std::invalid_argument{
            "unknown stack stage: " + std::string(tok) +
            " (expected trace|fault|validate|warpagg|resilient)"};
      }
      // "Halloc+R+V": the rightmost suffix is the outermost of the stages
      // the suffixes put directly above the base.
      for (auto plus = name.rfind('+'); plus != std::string_view::npos;
           plus = name.rfind('+')) {
        const auto sfx = name.substr(plus);
        const auto* t = find_stage(
            [sfx](const StageToken& s) { return s.suffix == sfx; });
        if (t == nullptr) {
          throw std::invalid_argument{"unknown stack suffix: " +
                                      std::string(sfx) +
                                      " (expected +V|+R|+W)"};
        }
        add(stage_of(t), {});
        name = name.substr(0, plus);
      }
      if (name.empty()) {
        throw std::invalid_argument{"stack suffix without a base allocator: " +
                                    std::string(tok)};
      }
      out.base = std::string(name);
      out.base_config = parse_config_overrides(braced);
    }
    if (last) break;
    pos = gt + 1;
  }
  return out;
}

}  // namespace gms::core
