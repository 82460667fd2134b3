#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/alloc_config.h"

namespace gms::core {

/// Parsed form of a manager-stack spec: decorator stages outermost-first,
/// then the base allocator's registry name — "trace>fault>validate>Halloc"
/// builds TracingManager(FaultInjector(ValidatingManager(Halloc))). Every
/// token takes the same "{k=v,...}" suffix: on a stage it sets that stage's
/// knobs ("resilient{retries=2}>fault{mode=nth,n=7}>Halloc"), on the base
/// the manager's Config ("Halloc{slab_bytes=2097152}"). The base token may
/// also carry "+V", "+R" and "+W" suffixes: each wraps everything to its
/// left in the validate, resilient or warpagg stage, so "Halloc+R+V" is
/// "validate>resilient>Halloc". The string is the whole configuration of a
/// stack, and a built stack's identity name is itself a spec.
struct StackSpec {
  enum class Stage : std::uint8_t {
    kTrace,
    kFault,
    kValidate,
    kWarpAgg,
    kResilient,
  };

  /// One stage token: the stage and its overrides as written (empty = the
  /// stage's defaults). fault, resilient and warpagg take the keys of
  /// FaultSpec, ResilienceSpec and WarpAggSpec; trace and validate take none.
  struct Layer {
    Stage stage;
    ConfigKV config;
  };

  std::vector<Layer> stages;  ///< outermost first, as written
  std::string base;           ///< registry name; empty for a stage-only spec
  /// Config overrides split off the base token ("validate>Halloc{slab_bytes=
  /// 2097152}"): applied over the registry entry's default Config when the
  /// stack is built. Empty = the entry's stock factory, byte-identical to
  /// the pre-config behaviour.
  ConfigKV base_config;

  /// Stage tokens: "trace", "fault", "validate", "warpagg", "resilient".
  /// The last '>'-separated token that is not a stage name becomes the
  /// base, its "+V"/"+R"/"+W" suffixes the stages directly above it; a spec
  /// of stages only ("trace>validate") leaves base empty so one --stack
  /// stage list can apply across a whole -t selection. Stage overrides are
  /// validated here, eagerly. Throws std::invalid_argument on unknown
  /// stages or suffixes, duplicates (however spelled), or empty tokens, and
  /// ConfigError (naming the field) on a malformed or rejected "{...}".
  static StackSpec parse(std::string_view spec);

  static std::string_view stage_name(Stage s);
  /// The name suffix a stage adds to the stack's identity ("+V", "+R",
  /// "+W"); empty for the transparent trace and fault stages.
  static std::string_view suffix(Stage s);
  /// Throws ConfigError when `config` is not a valid knob set for `stage`.
  static void check_knobs(Stage stage, const ConfigKV& config);

  [[nodiscard]] bool has(Stage s) const;
  /// Inverse of parse(): every stage as a token with its overrides
  /// ("Halloc+V" comes back as "validate>Halloc").
  [[nodiscard]] std::string to_string() const;
};

}  // namespace gms::core
