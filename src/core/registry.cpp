#include "core/registry.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

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

std::string_view Registry::intern(std::string name) {
  for (const auto& s : interned_) {
    if (s == name) return s;
  }
  interned_.push_back(std::move(name));
  return interned_.back();
}

const RegistryEntry* Registry::find(std::string_view name) const {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const auto& e) { return e.traits.name == name; });
  return it == entries_.end() ? nullptr : &*it;
}

std::vector<std::string> Registry::names(bool general_purpose_only,
                                         bool include_decorated) const {
  std::vector<std::string> out;
  for (const auto& e : entries_) {
    if (general_purpose_only && !e.traits.general_purpose) continue;
    if (!include_decorated && e.traits.decorated) continue;
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

  // Comma-separated explicit names. A "{k=v,...}" config suffix rides
  // along: the base must be registered and configurable, the suffix shape
  // must parse, and the braced token is returned whole so downstream cells
  // build the configured variant. Braces bind tighter than commas — a comma
  // inside "{...}" separates keys, not names.
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    const auto brace = spec.find('{', pos);
    if (brace != std::string_view::npos && comma != std::string_view::npos &&
        brace < comma) {
      const auto close = spec.find('}', brace);
      comma = close == std::string_view::npos ? std::string_view::npos
                                              : spec.find(',', close);
    }
    const auto name = spec.substr(
        pos, comma == std::string_view::npos ? spec.size() - pos : comma - pos);
    if (!name.empty()) {
      const auto [base, braced] = split_config_suffix(name);
      check_config(base, parse_config_overrides(braced));
      push_unique(name);
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
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

std::unique_ptr<MemoryManager> Registry::make(std::string_view name,
                                              gpu::Device& dev,
                                              std::size_t heap_bytes) const {
  const auto [base, braced] = split_config_suffix(name);
  const auto* entry = find(base);
  if (entry == nullptr) {
    throw std::invalid_argument{"unknown allocator: " + std::string(base)};
  }
  if (heap_bytes > dev.arena().size()) {
    throw std::invalid_argument{"heap larger than device arena"};
  }
  ManagerFactory factory = entry->factory;
  if (!braced.empty()) {
    const ConfigKV overrides = parse_config_overrides(braced);
    if (!overrides.empty()) {
      if (entry->config == nullptr) {
        throw ConfigError(ConfigError::Kind::kNotConfigurable,
                          std::string(base),
                          "allocator '" + std::string(base) +
                              "' takes no config overrides");
      }
      factory = entry->config->configured_factory(overrides);
    }
  }
  dev.arena().clear();
  return factory(dev, heap_bytes);
}

}  // namespace gms::core
