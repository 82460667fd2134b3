#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "core/fault_inject.h"
#include "core/memory_manager.h"
#include "core/registry.h"
#include "core/resilience.h"
#include "core/stack_spec.h"
#include "core/warpagg.h"
#include "gpu/device.h"
#include "trace/trace_recorder.h"

namespace gms::trace {
class TracingManager;
}  // namespace gms::trace

namespace gms::alloc_core {
class ResilientManager;
class WarpAggregator;
}  // namespace gms::alloc_core

namespace gms::core {

class ValidatingManager;

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
  /// The innermost manager, the registry entry's own: cast it to reach a
  /// base's host-side accessors (Ouroboros leaked pages, StreamPool state).
  MemoryManager* base = nullptr;
  std::unique_ptr<trace::TraceRecorder> recorder;  ///< set iff a trace stage

  /// Identity of the stack, and itself a spec: the base name with one
  /// suffix per validate ("+V"), resilient ("+R") or warpagg ("+W") stage,
  /// innermost first ("Halloc+R+V" for validate>resilient>Halloc). Trace
  /// and fault stages are transparent and never appear, wherever they sit,
  /// so StackSpec::parse(name) rebuilds the same validate, resilient and
  /// warpagg layers. It is the allocator field written into trace headers.
  std::string name;
};

/// The one way a name becomes a manager. ManagedDevice in bench_common.h,
/// the survey runner (via ManagedDevice), bench_replay, the service shards,
/// the examples and the tests all compose their stacks here; nothing
/// outside this class and the decorator tests constructs Validating/Fault/
/// Tracing decorators directly.
class StackBuilder {
 public:
  explicit StackBuilder(gpu::Device& dev) : dev_(&dev) {}

  /// Builds the stack over a freshly cleared arena, so every manager gets an
  /// identical cold start. Throws std::invalid_argument on an unknown base
  /// or a heap larger than the arena.
  [[nodiscard]] BuiltStack build(const StackSpec& spec,
                                 std::size_t heap_bytes) const;
  [[nodiscard]] BuiltStack build(std::string_view spec,
                                 std::size_t heap_bytes) const;

 private:
  gpu::Device* dev_;
};

}  // namespace gms::core
