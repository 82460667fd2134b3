#include "core/registry.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "core/stack_spec.h"

namespace gms::core {

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(RegistryEntry entry) {
  if (find(entry.traits.name) != nullptr) {
    throw std::logic_error{"duplicate allocator registration: " +
                           std::string(entry.traits.name)};
  }
  entries_.push_back(std::move(entry));
}

const RegistryEntry* Registry::find(std::string_view name) const {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const auto& e) { return e.traits.name == name; });
  return it == entries_.end() ? nullptr : &*it;
}

std::vector<std::string> Registry::names(bool general_purpose_only) const {
  std::vector<std::string> out;
  for (const auto& e : entries_) {
    if (general_purpose_only && !e.traits.general_purpose) continue;
    if (e.traits.decorated) continue;
    out.emplace_back(e.traits.name);
  }
  return out;
}

std::vector<std::string> Registry::select(std::string_view spec) const {
  std::vector<std::string> out;
  auto push_unique = [&](std::string_view n) {
    if (std::find(out.begin(), out.end(), n) == out.end()) {
      out.emplace_back(n);
    }
  };
  if (spec.empty() || spec == "all") return names();

  // Paper-style selector letters separated by '+', e.g. "o+s+h+c+r+x".
  const bool selector_style =
      spec.find(',') == std::string_view::npos &&
      std::all_of(spec.begin(), spec.end(),
                  [](char c) { return c == '+' || std::islower(c); }) &&
      spec.find('+') != std::string_view::npos;
  if (selector_style || spec.size() == 1) {
    for (char c : spec) {
      if (c == '+') continue;
      bool matched = false;
      for (const auto& e : entries_) {
        if (e.selector == c) {
          push_unique(e.traits.name);
          matched = true;
        }
      }
      if (!matched) {
        throw std::invalid_argument{std::string("unknown selector letter: ") +
                                    c};
      }
    }
    return out;
  }

  // Comma-separated stack specs ("Halloc+V", "XMalloc{num_classes=11}"),
  // each checked and returned whole so downstream cells build exactly what
  // was written. Braces bind tighter than commas: a comma inside "{...}"
  // separates keys, not cells.
  std::size_t start = 0, depth = 0;
  for (std::size_t i = 0; i <= spec.size(); ++i) {
    if (i < spec.size() && (spec[i] != ',' || depth != 0)) {
      if (spec[i] == '{') ++depth;
      if (spec[i] == '}' && depth != 0) --depth;
      continue;
    }
    const auto cell = spec.substr(start, i - start);
    start = i + 1;
    if (cell.empty()) continue;
    const auto parsed = StackSpec::parse(cell);
    if (parsed.base.empty()) {
      throw std::invalid_argument{"no base allocator in: " + std::string(cell)};
    }
    check_config(parsed.base, parsed.base_config);
    push_unique(cell);
  }
  return out;
}

void Registry::check_config(std::string_view name,
                            const ConfigKV& overrides) const {
  const auto* entry = find(name);
  if (entry == nullptr) {
    throw std::invalid_argument{"unknown allocator: " + std::string(name)};
  }
  if (overrides.empty()) return;
  if (entry->config == nullptr) {
    throw ConfigError(ConfigError::Kind::kNotConfigurable, std::string(name),
                      "allocator '" + std::string(name) +
                          "' takes no config overrides");
  }
  (void)entry->config->canonicalize(overrides);
}

}  // namespace gms::core
