#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace gms::core {

/// JSON string escaping for the results files (quotes, backslashes, control
/// characters). The writers below apply it to every string value.
[[nodiscard]] std::string json_escape(std::string_view s);

/// An ordered list of key/value fields rendering as one flat JSON object.
/// Values are rendered at add() time; raw() accepts pre-rendered JSON for
/// the rare nested member (bench_simt's trajectory anchor, survey's summary).
class JsonFields {
 public:
  JsonFields& str(std::string_view key, std::string_view value);
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonFields& num(std::string_view key, T value) {
    fields_.emplace_back(std::string(key), std::to_string(value));
    return *this;
  }
  /// Doubles go through ResultTable::fmt so results files keep the same
  /// fixed-precision, no-trailing-zeros look the tables use.
  JsonFields& num(std::string_view key, double value, int digits = 3);
  JsonFields& boolean(std::string_view key, bool value);
  JsonFields& raw(std::string_view key, std::string rendered);
  /// Every field of a flat layer report, in its schema's order, as
  /// `prefix` + field name. Report fields are all numeric, so each
  /// serialized value is written as a JSON number. The caller includes
  /// core/alloc_config.h.
  template <typename Report>
  JsonFields& report(const Report& r, std::string_view prefix = {}) {
    for (auto& [key, value] : Report::schema().serialize(r)) {
      fields_.emplace_back(std::string(prefix) + key, std::move(value));
    }
    return *this;
  }

  /// Renders as `{"k": v, ...}` (single line).
  [[nodiscard]] std::string render() const;

  [[nodiscard]] bool empty() const { return fields_.empty(); }

  /// The rendered (key, value) pairs in insertion order, for writers that
  /// lay fields out with their own indentation (BenchJson's meta block).
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  entries() const {
    return fields_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The repo's one `--json` results shape (originally copy-pasted into each
/// bench): a top-level object with the bench id, flat metadata fields, and a
/// "cases" array of flat records — one per (allocator, size) cell or
/// equivalent — so the results tooling ingests every bench the same way.
///
///   BenchJson json("oom");
///   json.meta().num("threads", args.threads);
///   json.add_case().str("name", "Ouroboros/16").num("percent", 98.5, 1);
///   json.write(args.json);
class BenchJson {
 public:
  explicit BenchJson(std::string bench_id) : bench_id_(std::move(bench_id)) {}

  /// Top-level fields, emitted after "bench" in insertion order.
  [[nodiscard]] JsonFields& meta() { return meta_; }

  /// Appends and returns a new record in the "cases" array.
  [[nodiscard]] JsonFields& add_case() { return cases_.emplace_back(); }

  [[nodiscard]] std::string render() const;

  /// Writes to `path` (creating parent directories) and prints the usual
  /// "(json written to ...)" note. Returns false (with a note on stderr)
  /// when the file cannot be written — benches treat that as non-fatal.
  bool write(const std::string& path) const;

 private:
  std::string bench_id_;
  JsonFields meta_;
  std::vector<JsonFields> cases_;
};

}  // namespace gms::core
