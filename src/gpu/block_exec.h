#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "gpu/config.h"
#include "gpu/fiber.h"
#include "gpu/fiber_pool.h"
#include "gpu/launch_observer.h"
#include "gpu/stats.h"
#include "gpu/thread_ctx.h"
#include "gpu/watchdog.h"

namespace gms::gpu {

/// Type-erased kernel entry: `invoke(object, ctx)` calls the user functor.
struct KernelRef {
  const void* object = nullptr;
  void (*invoke)(const void*, ThreadCtx&) = nullptr;
};

/// Executes one thread block: runs each lane on a fiber, schedules the
/// block's warps round-robin (all warps co-resident so the block barrier
/// works) and resolves warp collectives over coalesced lane groups.
///
/// One BlockExec lives per SM worker and is reused across blocks. Scheduling
/// is driven by per-warp ready/parked/barrier bitmasks: a pass visits only
/// set bits, skips idle warps in O(1) and resolves collectives by mask
/// intersection, and lane stacks are drawn lazily from a per-SM pool. The
/// resume order is part of the contract: test_simt pins the counters it
/// yields (lane switches, collectives, barriers, stacks created) exactly.
class BlockExec {
 public:
  /// `cancel` (optional) is the device-wide cancellation flag polled between
  /// scheduling passes; `heartbeat` (optional) is bumped whenever this SM
  /// makes progress, feeding the launch watchdog. `observer` (optional)
  /// points at the device's attached LaunchObserver slot: the executor reads
  /// it per barrier release, so tracing can be toggled between launches
  /// without rebuilding the worker pool.
  BlockExec(const GpuConfig& cfg, unsigned smid, StatsCounters& stats,
            const std::atomic<bool>* cancel = nullptr,
            std::atomic<std::uint64_t>* heartbeat = nullptr,
            const std::atomic<LaunchObserver*>* observer = nullptr);
  ~BlockExec();

  BlockExec(const BlockExec&) = delete;
  BlockExec& operator=(const BlockExec&) = delete;

  /// (Re)sizes lane state for a launch configuration.
  void prepare(unsigned grid_dim, unsigned block_dim, std::size_t shared_bytes,
               KernelRef kernel);

  /// Runs block `block_idx` to completion. Throws on kernel exception or on
  /// a detected SIMT deadlock.
  void run_block(unsigned block_idx);

 private:
  struct Lane {
    std::unique_ptr<Fiber> fiber;
    ThreadCtx ctx;
    detail::ParkSlot park;
    unsigned spin_streak = 0;  ///< consecutive backoff yields this pass
  };

  /// One warp's lane states, the only record of them: every lane is ready,
  /// parked or done(), and a parked lane waits at the block barrier or at a
  /// warp collective(). Invariant: ready and parked are disjoint subsets of
  /// valid, barrier ⊆ parked.
  struct WarpState {
    std::uint32_t valid = 0;    ///< lanes that exist (tail warps are partial)
    std::uint32_t ready = 0;    ///< runnable
    std::uint32_t parked = 0;   ///< suspended at a collective or the barrier
    std::uint32_t barrier = 0;  ///< subset of parked: at the block barrier

    /// Lanes parked at a warp collective (what resolve_collectives groups).
    [[nodiscard]] std::uint32_t collective() const { return parked & ~barrier; }
    [[nodiscard]] std::uint32_t done() const {
      return valid & ~(ready | parked);
    }
    /// False only when every lane is done or parked at the block barrier —
    /// then the warp cannot advance until the barrier releases, and the
    /// scheduling pass skips it without touching any lane.
    [[nodiscard]] bool runnable() const {
      return (ready | collective()) != 0;
    }
  };

  friend class ThreadCtx;
  static void lane_entry(void* lane_erased);

  /// Gives every runnable lane of warp `w` time slices until only spinners or
  /// parked lanes remain; resolves warp collectives as groups assemble.
  /// @return true if any lane made scheduling progress.
  bool run_warp(unsigned w);

  /// Groups lanes of warp `w` parked at collectives (by mask intersection)
  /// and resolves every group whose membership is complete.
  /// @return true if any group was released.
  bool resolve_collectives(unsigned w);
  void resolve_group(unsigned w, std::uint32_t member_mask);
  /// One address-homogeneous sub-group of a warp-aggregated atomic add
  /// (lanes targeting different words must issue separate RMWs).
  void resolve_agg_add_subgroup(unsigned w, std::uint32_t sub_mask,
                                std::uint32_t group_mask);

  /// Releases the block barrier once every lane is parked at it or done.
  bool try_release_barrier();

  [[noreturn]] void report_deadlock(unsigned block_idx);

  // ---- cooperative cancellation (launch watchdog) ----------------------
  /// Snapshot of the block's lane states for the timeout report.
  [[nodiscard]] TimeoutDiagnosis diagnose(unsigned block_idx) const;
  /// Resumes every live lane until it unwinds (each throws at its next
  /// backoff/collective/barrier) so destructors run and the fibers finish.
  /// The resume budget is proportional to the remaining live work; lanes
  /// that keep re-entering wait loops past it are abandoned.
  void unwind_lanes();
  [[noreturn]] void cancel_block(unsigned block_idx);
  /// Throws the lane-local cancel exception when a cancellation is underway.
  void maybe_cancel_lane() const;

  // ---- lane state transitions (each one writes only the warp masks) -----
  [[nodiscard]] WarpState& warp_of(const Lane& lane) {
    return warp_state_[lane.ctx.warp_in_block_];
  }
  /// Arms a pooled fiber for a lane about to be resumed for the first time.
  void ensure_fiber(Lane& lane);
  /// Marks a lane done, updates the warp masks and returns its stack to the
  /// pool.
  void retire_lane(Lane& lane);
  /// Debug invariant: every warp's masks satisfy the WarpState invariant.
  [[nodiscard]] bool masks_consistent() const;

  // Called from lanes (via ThreadCtx) while their fiber runs.
  void park_collective(Lane& lane);
  void park_barrier(Lane& lane);
  void lane_backoff(Lane& lane);

  const GpuConfig& cfg_;
  unsigned smid_;
  StatsCounters& stats_;
  const std::atomic<bool>* cancel_ = nullptr;
  std::atomic<std::uint64_t>* heartbeat_ = nullptr;
  const std::atomic<LaunchObserver*>* observer_ = nullptr;
  unsigned current_block_ = 0;  ///< block run_block is executing (markers)
  bool cancelling_ = false;

  KernelRef kernel_{};
  unsigned grid_dim_ = 0;
  unsigned block_dim_ = 0;
  unsigned warps_ = 0;
  std::vector<Lane> lanes_;
  std::vector<WarpState> warp_state_;
  FiberPool pool_;
  std::vector<std::byte> shared_mem_;   ///< grown, never shrunk, per launch
  std::size_t shared_bytes_ = 0;        ///< bytes this launch requested
  unsigned done_lanes_ = 0;
  std::exception_ptr kernel_error_;

  /// Spinner quantum: backoff yields a lane gets within one warp pass before
  /// the scheduler moves on to siblings.
  static constexpr unsigned kSpinQuantum = 8;
};

}  // namespace gms::gpu
