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
/// recorder backing a trace stage, which build() registers as the device's
/// launch observer. StackCell owns one together with its device and tears
/// both down in the right order.
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

/// The one way a name becomes a manager. StackCell builds every bench,
/// replay, tuner and service stack through it; the examples and the tests
/// call it on devices of their own. Nothing outside this class and the
/// decorator tests constructs Validating/Fault/Tracing decorators directly.
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

/// Arena bytes a cell's device holds beyond the heap. Trace headers record
/// heap + this as the capture's arena size.
inline constexpr std::size_t kArenaSlackBytes = std::size_t{8} << 20;

/// A fresh device and one stack on it: the one cold start that every bench
/// cell, replay, tuner candidate and service shard shares. Builds, in
/// order, a device whose arena is the heap plus kArenaSlackBytes (32 KiB
/// lane stacks, the given SM count and watchdog), the stack through
/// StackBuilder, and one empty warm-up launch of num_sms * 2 blocks of 256
/// lanes that materialises every SM's lane stacks outside any measurement.
/// A trace stage's recorder stays disabled, so the warm-up is never
/// recorded; callers enable it. Destruction clears the launch observer,
/// then drops the stack, then the device.
class StackCell {
 public:
  StackCell(const StackSpec& spec, std::size_t heap_bytes, unsigned num_sms,
            double watchdog_ms);
  ~StackCell();

  StackCell(const StackCell&) = delete;
  StackCell& operator=(const StackCell&) = delete;

  [[nodiscard]] gpu::Device& dev() { return dev_; }
  [[nodiscard]] const BuiltStack& stack() const { return stack_; }
  [[nodiscard]] MemoryManager& mgr() { return *stack_.manager; }
  [[nodiscard]] std::size_t heap_bytes() const { return heap_bytes_; }

 private:
  gpu::Device dev_;
  BuiltStack stack_;
  std::size_t heap_bytes_;
};

}  // namespace gms::core
