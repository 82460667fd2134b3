#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_inject.h"
#include "core/memory_manager.h"
#include "core/registry.h"
#include "core/resilience.h"
#include "core/warpagg.h"
#include "gpu/device.h"

namespace gms::trace {
class TraceRecorder;
class TracingManager;
}  // namespace gms::trace

namespace gms::alloc_core {
class ResilientManager;
class WarpAggregator;
}  // namespace gms::alloc_core

namespace gms::hostalloc {
class HostManagerBase;
}  // namespace gms::hostalloc

namespace gms::core {

class ValidatingManager;

/// Parsed form of a manager-stack spec: decorator stages outermost-first,
/// then the base allocator's registry name — "trace>fault>validate>Halloc"
/// builds TracingManager(FaultInjector(ValidatingManager(Halloc))). Every
/// token takes the same "{k=v,...}" suffix: on a stage it sets that stage's
/// knobs ("resilient{retries=2}>fault{mode=nth,n=7}>Halloc"), on the base
/// the manager's Config ("Halloc{slab_bytes=2097152}"). The string is the
/// whole configuration of a stack.
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
  /// base; a spec of stages only ("trace>validate") leaves base empty so
  /// one --stack stage list can apply across a whole -t selection. Stage
  /// overrides are validated here, eagerly. Throws std::invalid_argument on
  /// unknown stages, duplicates, or empty tokens, and ConfigError (naming
  /// the field) on a malformed or rejected "{...}" suffix.
  static StackSpec parse(std::string_view spec);

  static std::string_view stage_name(Stage s);
  [[nodiscard]] bool has(Stage s) const;
  /// Inverse of parse(): every token with its overrides as written.
  [[nodiscard]] std::string to_string() const;
};

/// Result of StackBuilder::build(): the composed manager plus borrowed
/// pointers into each decorator layer (all owned via `manager`), and the
/// recorder backing a trace stage. The caller keeps the recorder alive as
/// long as the manager and clears the device's launch observer before
/// destroying it (build() registers the recorder as observer).
struct BuiltStack {
  std::unique_ptr<MemoryManager> manager;
  ValidatingManager* validator = nullptr;
  FaultInjector* injector = nullptr;
  trace::TracingManager* tracer = nullptr;
  alloc_core::WarpAggregator* aggregator = nullptr;
  alloc_core::ResilientManager* resilient = nullptr;
  /// The base manager when it belongs to the host-based family (nullptr for
  /// device-side bases); like `resilient` and `aggregator` it marks into
  /// `recorder` when the stack has a trace stage.
  hostalloc::HostManagerBase* host = nullptr;
  std::unique_ptr<trace::TraceRecorder> recorder;  ///< set iff a trace stage

  /// Identity of the stack: the name of the outermost layer that is not a
  /// pure observer (trace and fault layers are transparent) — "Halloc",
  /// "Halloc+V", "Halloc+W". Matches the registered twin names and the
  /// allocator field written into trace headers.
  std::string name;
};

/// The one decorator-wiring path. Registry twin registration ("+V"/"+W"),
/// ManagedDevice in bench_common.h, the survey runner (via ManagedDevice)
/// and bench_replay all compose their stacks here; nothing outside this
/// class and the tests constructs Validating/Fault/Tracing decorators
/// directly.
class StackBuilder {
 public:
  explicit StackBuilder(gpu::Device& dev) : dev_(&dev) {}

  /// Builds the stack over a freshly cleared arena (Registry::make
  /// semantics: throws on unknown base or a heap larger than the arena).
  [[nodiscard]] BuiltStack build(const StackSpec& spec,
                                 std::size_t heap_bytes) const;
  [[nodiscard]] BuiltStack build(std::string_view spec,
                                 std::size_t heap_bytes) const;

  /// Factory wrapping `base` in one stage configured by `config` (the
  /// stage's "{k=v}" overrides, validated eagerly) — the registry's
  /// twin-registration hook, so "+V"/"+W" twins and --stack specs share the
  /// same wiring. The trace stage needs a live recorder and cannot be a
  /// standalone factory; passing kTrace throws std::invalid_argument.
  static ManagerFactory stage_factory(StackSpec::Stage stage,
                                      ManagerFactory base,
                                      const ConfigKV& config = {});

 private:
  gpu::Device* dev_;
};

}  // namespace gms::core
