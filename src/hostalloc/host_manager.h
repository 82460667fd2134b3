#pragma once

#include <cstddef>
#include <cstdint>

#include "alloc_core/sub_arena.h"
#include "allocators/common.h"
#include "core/memory_manager.h"
#include "gpu/device.h"
#include "gpu/thread_ctx.h"
#include "trace/trace_event.h"

namespace gms::hostalloc {

/// Common substrate of the host-based allocator family (DESIGN.md §14):
/// a SubArena slice of the device heap, one arena-resident spin-lock word
/// serializing host planning (the family's honest RPC-serialization cost)
/// and a trace::MarkerSink for placement markers (trace::EventKind 48-51).
///
/// Cancellation safety: the planning structures are ordinary host-side
/// containers, but every mutation happens inside a DeviceSpinLock critical
/// section containing only host code and instrumented atomics — no
/// collectives, no backoff() — so a watchdog-cancelled lane either never
/// acquired the lock or ran the section to completion. Unlike the
/// device-side managers, a cancelled kernel therefore loses *nothing*:
/// audits check strict byte accounting, not merely structural soundness.
class HostManagerBase : public core::MemoryManager {
 public:
  HostManagerBase(const HostManagerBase&) = delete;
  HostManagerBase& operator=(const HostManagerBase&) = delete;

  /// Points placement markers (carves, coalesces, stream syncs and trims)
  /// at `sink` (not owned; nullptr = off). StackBuilder wiring, host-side
  /// only.
  void set_marker_sink(trace::MarkerSink* sink) { sink_ = sink; }

 protected:
  HostManagerBase(gpu::Device& dev, std::size_t heap_bytes)
      : dev_(&dev), arena_(dev, heap_bytes) {
    lock_word_ = arena_.take<std::uint32_t>(1, 64, "host planner lock");
    *lock_word_ = 0;
  }

  [[nodiscard]] alloc::DeviceSpinLock planner_lock() const {
    return alloc::DeviceSpinLock{lock_word_};
  }

  gpu::Device* dev_;
  alloc_core::SubArena arena_;
  std::uint32_t* lock_word_ = nullptr;  ///< serializes all host planning
  trace::MarkerSink* sink_ = nullptr;
};

}  // namespace gms::hostalloc
