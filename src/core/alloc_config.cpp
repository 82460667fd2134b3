#include "core/alloc_config.h"

#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gms::core {

namespace {

bool is_key_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

[[noreturn]] void syntax_error(std::string_view text, const std::string& why) {
  throw ConfigError(ConfigError::Kind::kSyntax, "",
                    "bad config override '" + std::string(text) + "': " + why);
}

}  // namespace

ConfigKV parse_config_overrides(std::string_view braced) {
  ConfigKV out;
  if (braced.empty()) return out;
  if (braced.front() != '{' || braced.back() != '}') {
    syntax_error(braced, "expected '{k=v,...}'");
  }
  std::string_view body = braced.substr(1, braced.size() - 2);
  if (body.empty()) return out;  // "{}" — explicit defaults
  std::size_t pos = 0;
  while (pos <= body.size()) {
    const std::size_t comma = body.find(',', pos);
    const std::string_view item =
        body.substr(pos, comma == std::string_view::npos ? comma : comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      syntax_error(braced, "missing '=' in '" + std::string(item) + "'");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (key.empty()) syntax_error(braced, "empty key");
    if (value.empty()) {
      syntax_error(braced, "empty value for key '" + std::string(key) + "'");
    }
    for (char c : key) {
      if (!is_key_char(c)) {
        syntax_error(braced, "bad key '" + std::string(key) + "'");
      }
    }
    for (const auto& [prev, v] : out) {
      if (prev == key) {
        throw ConfigError(ConfigError::Kind::kDuplicateKey, std::string(key),
                          "duplicate config key '" + std::string(key) + "'");
      }
    }
    out.emplace_back(std::string(key), std::string(value));
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::pair<std::string_view, std::string_view> split_config_suffix(
    std::string_view name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos) return {name, {}};
  if (name.back() != '}') {
    syntax_error(name, "unterminated '{' (expected trailing '}')");
  }
  return {name.substr(0, brace), name.substr(brace)};
}

std::string format_config(const ConfigKV& kv) {
  if (kv.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i) out += ',';
    out += kv[i].first;
    out += '=';
    out += kv[i].second;
  }
  out += '}';
  return out;
}

std::string format_double(double v) {
  // Shortest form among %.15g/%.16g/%.17g that survives a strtod round
  // trip: "0.835" stays "0.835", irrationals get the digits they need.
  char buf[64];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::vector<std::uint64_t> parse_ladder_string(std::string_view value,
                                               const std::string& field) {
  auto bad = [&](const std::string& why) -> void {
    throw ConfigError(ConfigError::Kind::kBadLadder, field,
                      "config field '" + field + "': bad ladder '" +
                          std::string(value) + "': " + why);
  };
  std::vector<std::uint64_t> out;
  if (value.empty()) bad("empty ladder");
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t colon = value.find(':', pos);
    const std::string item(value.substr(
        pos, colon == std::string_view::npos ? colon : colon - pos));
    if (item.empty()) bad("empty rung");
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(item.c_str(), &end, 10);
    if (errno != 0 || end == item.c_str() || *end != '\0') {
      bad("non-numeric rung '" + item + "'");
    }
    if (v == 0) bad("zero-byte rung");
    if (!out.empty() && v <= out.back()) bad("rungs must strictly ascend");
    out.push_back(v);
    if (out.size() > kMaxLadderClasses) {
      bad("more than " + std::to_string(kMaxLadderClasses) + " classes");
    }
    if (colon == std::string_view::npos) break;
    pos = colon + 1;
  }
  return out;
}

std::uint64_t config_parse_u64(const std::string& value,
                               const std::string& field) {
  // Plain decimal only: no sign, base prefix or surrounding space.
  std::uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw ConfigError(ConfigError::Kind::kBadValue, field,
                      "config field '" + field + "': '" + value +
                          "' is not an unsigned integer");
  }
  return v;
}

double config_parse_double(const std::string& value, const std::string& field) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (errno != 0 || end == value.c_str() || *end != '\0' || !std::isfinite(v)) {
    throw ConfigError(ConfigError::Kind::kBadValue, field,
                      "config field '" + field + "': '" + value +
                          "' is not a finite number");
  }
  return v;
}

bool config_parse_bool(const std::string& value, const std::string& field) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  throw ConfigError(ConfigError::Kind::kBadValue, field,
                    "config field '" + field + "': '" + value +
                        "' is not a bool (0/1/true/false)");
}

void config_check_u64_range(std::uint64_t v, std::uint64_t lo,
                            std::uint64_t hi, bool pow2,
                            const std::string& field) {
  if (v < lo || v > hi) {
    throw ConfigError(ConfigError::Kind::kOutOfRange, field,
                      "config field '" + field + "': " + std::to_string(v) +
                          " outside [" + std::to_string(lo) + ", " +
                          std::to_string(hi) + "]");
  }
  if (pow2 && !std::has_single_bit(v)) {
    throw ConfigError(ConfigError::Kind::kNotPow2, field,
                      "config field '" + field + "': " + std::to_string(v) +
                          " must be a power of two");
  }
}

void config_check_double_range(double v, double lo, double hi,
                               const std::string& field) {
  if (v < lo || v > hi) {
    throw ConfigError(ConfigError::Kind::kOutOfRange, field,
                      "config field '" + field + "': " + format_double(v) +
                          " outside [" + format_double(lo) + ", " +
                          format_double(hi) + "]");
  }
}

}  // namespace gms::core
