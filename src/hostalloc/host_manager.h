#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc_core/sub_arena.h"
#include "allocators/common.h"
#include "core/memory_manager.h"
#include "gpu/device.h"
#include "gpu/thread_ctx.h"
#include "trace/trace_event.h"

namespace gms::hostalloc {

/// Uniform debug/introspection surface across the host-based family, in the
/// ppsspp `GPUMemoryManager` idiom (SNIPPETS.md snippet 3): a name, a
/// fixed-buffer debug string, and a process-wide registry of the managers
/// currently alive so tooling can enumerate them without owning them.
class HostIntrospection {
 public:
  virtual ~HostIntrospection() = default;

  [[nodiscard]] virtual const char* host_name() const = 0;

  /// Writes a single-line, NUL-terminated utilization summary into `buffer`
  /// (truncated to `buf_size`). Quiescent-only, like audit().
  virtual void get_debug_string(char* buffer, std::size_t buf_size) const = 0;
};

/// Registry of live host-based managers (mutex-guarded; registration happens
/// in HostManagerBase's ctor/dtor, enumeration from tests and tooling).
void register_host_manager(HostIntrospection* mgr);
void unregister_host_manager(HostIntrospection* mgr);
[[nodiscard]] std::vector<HostIntrospection*> active_host_managers();

/// Common substrate of the host-based allocator family (DESIGN.md §14):
/// a SubArena slice of the device heap, one arena-resident spin-lock word
/// serializing host planning (the family's honest RPC-serialization cost),
/// a trace::MarkerSink for placement markers (trace::EventKind 48-51), and
/// automatic introspection registration.
///
/// Cancellation safety: the planning structures are ordinary host-side
/// containers, but every mutation happens inside a DeviceSpinLock critical
/// section containing only host code and instrumented atomics — no
/// collectives, no backoff() — so a watchdog-cancelled lane either never
/// acquired the lock or ran the section to completion. Unlike the
/// device-side managers, a cancelled kernel therefore loses *nothing*:
/// audits check strict byte accounting, not merely structural soundness.
class HostManagerBase : public core::MemoryManager, public HostIntrospection {
 public:
  ~HostManagerBase() override;

  HostManagerBase(const HostManagerBase&) = delete;
  HostManagerBase& operator=(const HostManagerBase&) = delete;

  /// Points placement markers (carves, coalesces, stream syncs and trims)
  /// at `sink` (not owned; nullptr = off). StackBuilder wiring, host-side
  /// only.
  void set_marker_sink(trace::MarkerSink* sink) { sink_ = sink; }

 protected:
  HostManagerBase(gpu::Device& dev, std::size_t heap_bytes);

  [[nodiscard]] alloc::DeviceSpinLock planner_lock() const {
    return alloc::DeviceSpinLock{lock_word_};
  }

  gpu::Device* dev_;
  alloc_core::SubArena arena_;
  std::uint32_t* lock_word_ = nullptr;  ///< serializes all host planning
  trace::MarkerSink* sink_ = nullptr;
};

}  // namespace gms::hostalloc
