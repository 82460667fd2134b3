#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/alloc_config.h"
#include "core/memory_manager.h"
#include "gpu/device.h"

namespace gms::core {

struct RegistryEntry {
  AllocatorTraits traits;
  /// Paper CLI selector letter: o+s+h+c+r+x (+a atomic, +f FDG).
  char selector = '?';
  ManagerFactory factory;
  /// Runtime-Config surface (schema + defaults). Null for entries without
  /// tunable knobs (CudaStandin, the survey stubs) — "{k=v}" against a null
  /// model is a typed kNotConfigurable error.
  std::shared_ptr<const ConfigModel> config;
};

/// Global catalogue of every surveyed base allocator. Populated by
/// register_all_allocators(); benches and tests enumerate it instead of
/// hard-coding the variants. It holds bases only: a decorated stack
/// ("Halloc+V", "validate>Halloc") is a StackSpec over a base, and
/// StackBuilder is the one way a name becomes a manager.
class Registry {
 public:
  static Registry& instance();

  void add(RegistryEntry entry);

  [[nodiscard]] const RegistryEntry* find(std::string_view name) const;
  [[nodiscard]] const std::vector<RegistryEntry>& entries() const {
    return entries_;
  }

  /// All base names, optionally restricted to general-purpose managers.
  /// Entries flagged `decorated` (the survey stubs) are left out.
  [[nodiscard]] std::vector<std::string> names(
      bool general_purpose_only = false) const;

  /// Expands a paper-style selector ("o+s+h") or a comma list of stack
  /// specs ("Halloc,Ouro-P-S+V,XMalloc{num_classes=11}") into -t cells,
  /// each returned as written. Throws on unknown selector letters, on a
  /// token that is not a spec over a registered base, and on "{k=v}"
  /// overrides check_config rejects. "all" is names().
  [[nodiscard]] std::vector<std::string> select(std::string_view spec) const;

  /// Checks `overrides` against `name`'s config schema (keys, ranges and
  /// cross-field rules) before anything is built. Throws
  /// std::invalid_argument for an unknown name, ConfigError otherwise.
  void check_config(std::string_view name, const ConfigKV& overrides) const;

 private:
  std::vector<RegistryEntry> entries_;
};

/// Registers S4-S11 (idempotent). Call once at program start.
void register_all_allocators();

}  // namespace gms::core
