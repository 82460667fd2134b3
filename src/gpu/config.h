#pragma once

#include <cstddef>
#include <thread>

namespace gms::gpu {

/// Lanes per warp. Fixed at the CUDA value: every allocator in the survey
/// bakes 32 into its data layout (XMalloc's 32 Basicblocks per Superblock,
/// ScatterAlloc's 32-bit page usage fields, Halloc's warp aggregation, ...).
inline constexpr unsigned kWarpSize = 32;

/// Bytes per memory transaction used by the coalescing model (Fig. 11e):
/// one L1/DRAM sector-pair, i.e. the classic 128 B coalescing window.
inline constexpr std::size_t kTransactionBytes = 128;

/// Shape of the simulated device.
///
/// Worker threads play streaming multiprocessors: each runs one block at a
/// time with all of the block's warps co-resident (so block barriers work),
/// and exposes its index as smid() — which ScatterAlloc's hash and the
/// Reg-Eff multi variants use to spread contention, exactly as on hardware.
struct GpuConfig {
  unsigned num_sms = default_num_sms();
  std::size_t lane_stack_bytes = 64 * 1024;
  /// Scheduler passes with zero lane progress before the SM yields the OS
  /// thread (lets other SMs run so lock-free retry loops observe progress).
  unsigned stall_passes_before_os_yield = 4;
  /// Hard cap on consecutive no-progress passes; exceeding it means the
  /// kernel genuinely deadlocked (e.g. a masked collective waiting on an
  /// exited lane) and launch() throws instead of hanging the host.
  unsigned long long deadlock_pass_limit = 1ull << 22;
  /// Launch watchdog (§4.5's one-hour mark, scaled down): if no SM makes
  /// scheduling progress for this many wall-clock milliseconds the launch is
  /// cancelled, its lanes are unwound and Device::launch throws
  /// LaunchTimeout. 0 disables the watchdog. Cancellation is cooperative:
  /// a lane is reaped at its next backoff/collective/barrier, so a kernel
  /// spinning without ever yielding can still wedge the host.
  double watchdog_ms = 0;
  /// How often the host polls the per-SM heartbeats while waiting.
  double watchdog_poll_ms = 20;

  static unsigned default_num_sms() {
    unsigned hw = std::thread::hardware_concurrency();
    // Keep a handful of SMs even on small hosts: OS preemption still
    // interleaves them, which preserves inter-SM contention semantics.
    return hw < 4 ? 4 : hw;
  }
};

}  // namespace gms::gpu
