#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gms::gpu {
class Device;
}  // namespace gms::gpu

namespace gms::core {

class MemoryManager;

/// Factory signature: builds a manager governing `heap_bytes` of the device
/// arena (starting at offset 0; the arena is cleared first so every manager
/// gets an identical cold start). Lives here (not registry.h) because the
/// config layer hands configured factories back to the registry.
using ManagerFactory = std::function<std::unique_ptr<MemoryManager>(
    gpu::Device& dev, std::size_t heap_bytes)>;

/// Typed failure vocabulary of the runtime-Config layer. Every rejection a
/// schema can produce carries *which* field and *why* — the stack-spec
/// parser, the benches' --config flag and the tuner all surface the same
/// diagnoses. Derives std::invalid_argument so the existing catch sites
/// (parse_args, StackSpec callers) keep working unchanged.
class ConfigError : public std::invalid_argument {
 public:
  enum class Kind : std::uint8_t {
    kSyntax,         ///< malformed "{k=v,...}" override text
    kUnknownKey,     ///< key is not a field of this manager's schema
    kDuplicateKey,   ///< the same key appears twice in one override set
    kBadValue,       ///< value does not parse as the field's type
    kOutOfRange,     ///< parsed value violates the field's [min, max]
    kNotPow2,        ///< field requires a power of two
    kBadLadder,      ///< size-class ladder is empty/too long/not ascending
    kNotConfigurable ///< "{...}" attached to a manager without a schema
  };

  ConfigError(Kind kind, std::string field, const std::string& what)
      : std::invalid_argument(what), kind_(kind), field_(std::move(field)) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  /// The offending field/key ("" for whole-string syntax errors).
  [[nodiscard]] const std::string& field() const { return field_; }

 private:
  Kind kind_;
  std::string field_;
};

/// Ordered key=value overrides, exactly as written. Order is preserved so
/// serialized configs are deterministic (schema field order) and diffable.
using ConfigKV = std::vector<std::pair<std::string, std::string>>;

/// Parses a braced override list: "{page_size=8192,hash_stride=7}" (or ""
/// / "{}" for no overrides). Throws ConfigError kSyntax on malformed text
/// and kDuplicateKey on a repeated key.
[[nodiscard]] ConfigKV parse_config_overrides(std::string_view braced);

/// Splits "Name{...}" into (base name, brace suffix incl. braces; empty when
/// absent). Throws ConfigError kSyntax on an unclosed '{' or trailing text
/// after '}'.
[[nodiscard]] std::pair<std::string_view, std::string_view> split_config_suffix(
    std::string_view name);

/// Re-serializes overrides as "{k=v,...}" ("" when empty) — the inverse of
/// parse_config_overrides for round-tripping stack specs.
[[nodiscard]] std::string format_config(const ConfigKV& kv);

/// Shortest decimal form of `v` that parses back bit-identically —
/// serialized configs must round-trip through text without drift.
[[nodiscard]] std::string format_double(double v);

/// Colon-separated ascending size ladder ("16:24:32:...:3072") used by the
/// ladder-typed fields; 1..16 entries, strictly ascending, nonzero. Throws
/// ConfigError kBadLadder. alloc_core::SizeClassMap::parse builds on this.
[[nodiscard]] std::vector<std::uint64_t> parse_ladder_string(
    std::string_view value, const std::string& field = "ladder");
inline constexpr std::size_t kMaxLadderClasses = 16;

/// Reflection record for one schema field: the tuner's mutation/crossover
/// operators and the round-trip tests drive everything from this.
struct ConfigFieldInfo {
  enum class Kind : std::uint8_t { kU64, kDouble, kBool, kEnum, kLadder };

  std::string name;
  Kind kind = Kind::kU64;
  std::uint64_t min = 0;                ///< kU64 inclusive range
  std::uint64_t max = ~std::uint64_t{0};
  double dmin = 0.0, dmax = 0.0;        ///< kDouble inclusive range
  bool pow2 = false;                    ///< kU64: power-of-two required
  std::vector<std::string> choices;     ///< kEnum: legal values
  /// Serialized candidate values seeding the tuner's grid phase. Fields
  /// without a grid are still mutated within [min, max] / choices.
  std::vector<std::string> grid;
};

enum class Pow2 : std::uint8_t { kNo, kYes };

// Field validators (alloc_config.cpp) shared by every ConfigSchema<C>
// instantiation, so the templated setters stay tiny.
std::uint64_t config_parse_u64(const std::string& value,
                               const std::string& field);
double config_parse_double(const std::string& value, const std::string& field);
bool config_parse_bool(const std::string& value, const std::string& field);
void config_check_u64_range(std::uint64_t v, std::uint64_t lo,
                            std::uint64_t hi, bool pow2,
                            const std::string& field);
void config_check_double_range(double v, double lo, double hi,
                               const std::string& field);

/// Declarative schema over a manager's Config struct: field bindings give
/// parse (validated string -> member), serialize (member -> string) and
/// reflection (ConfigFieldInfo) from one declaration per field. Cross-field
/// invariants hang off check(). Identity fields (RegEff's fused/multi,
/// Ouroboros' queue kind) are deliberately *not* bound: they distinguish
/// registry entries and must not be overridable through "{k=v}". The flat
/// layer reports (ResilienceReport, AggregationReport, TenantReport,
/// ServiceReport) declare their fields here too, as `schema()`: one list
/// gives their `to_string()` and the benches' JSON records
/// (JsonFields::report).
template <typename C>
class ConfigSchema {
 public:
  using CrossCheck = std::function<void(const C&)>;  ///< throws ConfigError

  /// `hi` may not exceed what M holds, so no accepted value is truncated.
  template <typename M>
  ConfigSchema& u64(std::string name, M C::*mem, std::uint64_t lo,
                    std::uint64_t hi, Pow2 pow2 = Pow2::kNo,
                    std::vector<std::uint64_t> grid = {}) {
    if (hi > std::numeric_limits<M>::max()) {
      throw std::logic_error("config field '" + name +
                             "': bound exceeds the member's width");
    }
    ConfigFieldInfo info;
    info.name = name;
    info.kind = ConfigFieldInfo::Kind::kU64;
    info.min = lo;
    info.max = hi;
    info.pow2 = pow2 == Pow2::kYes;
    for (auto g : grid) info.grid.push_back(std::to_string(g));
    Field f;
    f.get = [mem](const C& c) {
      return std::to_string(static_cast<std::uint64_t>(c.*mem));
    };
    f.set = [mem, name, lo, hi, pow2](C& c, const std::string& value) {
      const std::uint64_t v = config_parse_u64(value, name);
      config_check_u64_range(v, lo, hi, pow2 == Pow2::kYes, name);
      c.*mem = static_cast<M>(v);
    };
    add(std::move(info), std::move(f));
    return *this;
  }

  template <typename M>
  ConfigSchema& dbl(std::string name, M C::*mem, double lo, double hi,
                    std::vector<double> grid = {}) {
    ConfigFieldInfo info;
    info.name = name;
    info.kind = ConfigFieldInfo::Kind::kDouble;
    info.dmin = lo;
    info.dmax = hi;
    for (auto g : grid) info.grid.push_back(format_double(g));
    Field f;
    f.get = [mem](const C& c) {
      return format_double(static_cast<double>(c.*mem));
    };
    f.set = [mem, name, lo, hi](C& c, const std::string& value) {
      const double v = config_parse_double(value, name);
      config_check_double_range(v, lo, hi, name);
      c.*mem = static_cast<M>(v);
    };
    add(std::move(info), std::move(f));
    return *this;
  }

  ConfigSchema& boolean(std::string name, bool C::*mem) {
    ConfigFieldInfo info;
    info.name = name;
    info.kind = ConfigFieldInfo::Kind::kBool;
    info.grid = {"0", "1"};
    Field f;
    f.get = [mem](const C& c) { return c.*mem ? std::string("1") : "0"; };
    f.set = [mem, name](C& c, const std::string& value) {
      c.*mem = config_parse_bool(value, name);
    };
    add(std::move(info), std::move(f));
    return *this;
  }

  template <typename E>
  ConfigSchema& enum_(std::string name, E C::*mem,
                      std::vector<std::pair<std::string, E>> choices) {
    ConfigFieldInfo info;
    info.name = name;
    info.kind = ConfigFieldInfo::Kind::kEnum;
    for (const auto& [label, value] : choices) {
      info.choices.push_back(label);
      info.grid.push_back(label);
    }
    Field f;
    f.get = [mem, choices](const C& c) -> std::string {
      for (const auto& [label, value] : choices) {
        if (c.*mem == value) return label;
      }
      return "?";
    };
    f.set = [mem, name, choices](C& c, const std::string& value) {
      for (const auto& [label, v] : choices) {
        if (value == label) {
          c.*mem = v;
          return;
        }
      }
      std::string known;
      for (const auto& [label, v] : choices) {
        known += (known.empty() ? "" : "|") + label;
      }
      throw ConfigError(ConfigError::Kind::kBadValue, name,
                        "config field '" + name + "': unknown value '" +
                            value + "' (expected " + known + ")");
    };
    add(std::move(info), std::move(f));
    return *this;
  }

  /// A colon-separated size-class ladder stored as a string member. The
  /// binding validates shape (parse_ladder_string); the manager's ctor
  /// turns it into a SizeClassMap.
  ConfigSchema& ladder(std::string name, std::string C::*mem,
                       std::vector<std::string> grid = {}) {
    ConfigFieldInfo info;
    info.name = name;
    info.kind = ConfigFieldInfo::Kind::kLadder;
    info.grid = std::move(grid);
    Field f;
    f.get = [mem](const C& c) { return c.*mem; };
    f.set = [mem, name](C& c, const std::string& value) {
      (void)parse_ladder_string(value, name);  // shape validation only
      c.*mem = value;
    };
    add(std::move(info), std::move(f));
    return *this;
  }

  /// Cross-field invariant, run after every parse (defaults included).
  ConfigSchema& check(CrossCheck fn) {
    checks_.push_back(std::move(fn));
    return *this;
  }

  /// Applies `overrides` on top of `base` with per-field validation and the
  /// cross-field checks. Throws ConfigError; never partially applies to the
  /// caller's object (works on a copy).
  [[nodiscard]] C parse(const ConfigKV& overrides, const C& base) const {
    C out = base;
    for (std::size_t i = 0; i < overrides.size(); ++i) {
      const auto& [key, value] = overrides[i];
      for (std::size_t j = 0; j < i; ++j) {
        if (overrides[j].first == key) {
          throw ConfigError(ConfigError::Kind::kDuplicateKey, key,
                            "duplicate config key '" + key + "'");
        }
      }
      const Field* field = nullptr;
      for (std::size_t f = 0; f < infos_.size(); ++f) {
        if (infos_[f].name == key) {
          field = &fields_[f];
          break;
        }
      }
      if (field == nullptr) {
        std::string known;
        for (const auto& fi : infos_) {
          known += (known.empty() ? "" : ", ") + fi.name;
        }
        throw ConfigError(ConfigError::Kind::kUnknownKey, key,
                          "unknown config key '" + key + "' (known: " + known +
                              ")");
      }
      field->set(out, value);
    }
    for (const auto& chk : checks_) chk(out);
    return out;
  }

  /// Full serialization in schema field order — the canonical text form.
  [[nodiscard]] ConfigKV serialize(const C& c) const {
    ConfigKV out;
    out.reserve(infos_.size());
    for (std::size_t f = 0; f < infos_.size(); ++f) {
      out.emplace_back(infos_[f].name, fields_[f].get(c));
    }
    return out;
  }

  [[nodiscard]] const std::vector<ConfigFieldInfo>& fields() const {
    return infos_;
  }

 private:
  struct Field {
    std::function<std::string(const C&)> get;
    std::function<void(C&, const std::string&)> set;
  };

  void add(ConfigFieldInfo info, Field f) {
    infos_.push_back(std::move(info));
    fields_.push_back(std::move(f));
  }

  std::vector<ConfigFieldInfo> infos_;
  std::vector<Field> fields_;
  std::vector<CrossCheck> checks_;
};

/// Type-erased view of one registry entry's config surface: the registry,
/// the stack builder and the tuner all reach a manager's schema through
/// this without knowing the concrete Config type.
class ConfigModel {
 public:
  virtual ~ConfigModel() = default;

  [[nodiscard]] virtual const std::vector<ConfigFieldInfo>& fields() const = 0;
  /// This entry's default config, fully serialized (schema field order).
  [[nodiscard]] virtual ConfigKV defaults() const = 0;
  /// Validates `overrides` against the schema and returns the *complete*
  /// resulting config serialized — the canonical form the tuner dedups on
  /// and BENCH_tune.json reports.
  [[nodiscard]] virtual ConfigKV canonicalize(const ConfigKV& overrides) const = 0;
  /// A factory building this entry's manager with `overrides` applied on
  /// top of the entry's defaults. Validation happens here, eagerly.
  [[nodiscard]] virtual ManagerFactory configured_factory(
      const ConfigKV& overrides) const = 0;
};

/// The one ConfigModel implementation managers need: schema + per-entry
/// default Config (so the four RegEff and six Ouroboros entries share a
/// schema while keeping their identity defaults).
template <typename Manager>
class TypedConfigModel final : public ConfigModel {
 public:
  using Config = typename Manager::Config;

  TypedConfigModel(const ConfigSchema<Config>& schema, Config defaults)
      : schema_(&schema), defaults_(defaults) {}

  [[nodiscard]] const std::vector<ConfigFieldInfo>& fields() const override {
    return schema_->fields();
  }
  [[nodiscard]] ConfigKV defaults() const override {
    return schema_->serialize(defaults_);
  }
  [[nodiscard]] ConfigKV canonicalize(const ConfigKV& overrides) const override {
    return schema_->serialize(schema_->parse(overrides, defaults_));
  }
  [[nodiscard]] ManagerFactory configured_factory(
      const ConfigKV& overrides) const override;

 private:
  const ConfigSchema<Config>* schema_;
  Config defaults_;
};

}  // namespace gms::core

// TypedConfigModel::configured_factory needs the Manager definition; keep it
// in a separate trailing block so alloc_config.h itself stays light. The
// including TU (register_all.cpp, tests) always has the manager types.
#include "gpu/device.h"

namespace gms::core {

template <typename Manager>
ManagerFactory TypedConfigModel<Manager>::configured_factory(
    const ConfigKV& overrides) const {
  Config cfg = schema_->parse(overrides, defaults_);
  return [cfg](gpu::Device& dev, std::size_t heap) {
    return std::unique_ptr<MemoryManager>(
        std::make_unique<Manager>(dev, heap, cfg));
  };
}

}  // namespace gms::core
