#pragma once

#include <deque>
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
  /// tunable knobs (CudaStandin, decorated twins delegate to their base) —
  /// "{k=v}" against a null model is a typed kNotConfigurable error.
  std::shared_ptr<const ConfigModel> config;
};

/// Global catalogue of every surveyed allocator variant. Populated by
/// register_all_allocators(); benches and tests enumerate it instead of
/// hard-coding the sixteen variants.
class Registry {
 public:
  static Registry& instance();

  void add(RegistryEntry entry);

  [[nodiscard]] const RegistryEntry* find(std::string_view name) const;
  [[nodiscard]] const std::vector<RegistryEntry>& entries() const {
    return entries_;
  }

  /// All variant names, optionally restricted to general-purpose managers.
  /// Decorated entries (the "+V" validated twins) are excluded unless
  /// `include_decorated` — default populations must not silently double.
  [[nodiscard]] std::vector<std::string> names(
      bool general_purpose_only = false, bool include_decorated = false) const;

  /// Expands a paper-style selector ("o+s+h", 'v' = validated twins) or a
  /// comma list of names ("Halloc,Ouro-P-S") into registry names. Throws on
  /// unknown selectors and on "Name{k=v}" overrides check_config rejects.
  /// "all" excludes decorated twins, like names().
  [[nodiscard]] std::vector<std::string> select(std::string_view spec) const;

  /// Checks `overrides` against `name`'s config schema (keys, ranges and
  /// cross-field rules) before anything is built. Throws
  /// std::invalid_argument for an unknown name, ConfigError otherwise.
  void check_config(std::string_view name, const ConfigKV& overrides) const;

  /// Builds a manager over a freshly cleared arena.
  [[nodiscard]] std::unique_ptr<MemoryManager> make(std::string_view name,
                                                    gpu::Device& dev,
                                                    std::size_t heap_bytes) const;

  /// Interns a runtime-built name (the decorated "+V"/"+W" twin names) for
  /// the registry's lifetime, so AllocatorTraits can keep its string_view
  /// shape. Deduplicates; the deque keeps references stable across growth.
  std::string_view intern(std::string name);

 private:
  std::vector<RegistryEntry> entries_;
  std::deque<std::string> interned_;  ///< backs decorated twin trait names
};

/// Registers S4-S11 (idempotent). Call once at program start.
void register_all_allocators();

}  // namespace gms::core
