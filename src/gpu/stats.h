#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

namespace gms::gpu {

/// Cache-line quantum used to pad per-SM hot state (stats slots, heartbeat
/// words) so adjacent SMs never bounce one line on their per-switch updates.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
#endif
#ifdef __cpp_lib_hardware_interference_size
inline constexpr std::size_t kDestructiveInterferenceSize =
    std::hardware_destructive_interference_size;
#else
inline constexpr std::size_t kDestructiveInterferenceSize = 64;
#endif
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Event counters gathered while a kernel runs.
///
/// Counters are accumulated into per-SM instances (no cross-thread sharing on
/// the hot path) and summed into a LaunchStats when the launch drains. They
/// power the §4.1 resource-footprint bench and let tests assert behavioural
/// properties (e.g. "warp aggregation really did collapse 32 atomics into 1")
/// that wall-clock time cannot show on a simulator.
struct StatsCounters {
  std::uint64_t atomic_rmw = 0;       ///< fetch_add/or/and/exch/min/max
  std::uint64_t atomic_cas = 0;       ///< CAS attempts
  std::uint64_t atomic_cas_failed = 0;
  std::uint64_t atomic_load = 0;
  std::uint64_t atomic_store = 0;
  std::uint64_t collectives = 0;      ///< warp collective operations resolved
  /// Lane activations: one each time a lane starts or resumes. Not fiber
  /// resumes: lanes that run to completion chain on one stack, so a
  /// run-to-completion block costs one stack activation per chain, while
  /// this counter still counts every lane.
  std::uint64_t lane_switches = 0;
  std::uint64_t backoffs = 0;         ///< ThreadCtx::backoff() calls
  std::uint64_t block_barriers = 0;   ///< block-wide barrier releases
  std::uint64_t os_yields = 0;        ///< SM gave up its OS thread slice
  std::uint64_t fibers_created = 0;   ///< new lane stacks this SM had to wire

  StatsCounters& operator+=(const StatsCounters& o) {
    atomic_rmw += o.atomic_rmw;
    atomic_cas += o.atomic_cas;
    atomic_cas_failed += o.atomic_cas_failed;
    atomic_load += o.atomic_load;
    atomic_store += o.atomic_store;
    collectives += o.collectives;
    lane_switches += o.lane_switches;
    backoffs += o.backoffs;
    block_barriers += o.block_barriers;
    os_yields += o.os_yields;
    fibers_created += o.fibers_created;
    return *this;
  }

  [[nodiscard]] std::uint64_t atomic_total() const {
    return atomic_rmw + atomic_cas + atomic_load + atomic_store;
  }
};

/// One SM's counters, padded to a cache line: the scheduler bumps
/// lane_switches on every lane activation, and without the padding two
/// adjacent SMs write-share one line and pay a coherence miss per switch.
struct alignas(kDestructiveInterferenceSize) SmStatsSlot {
  StatsCounters counters;
};

/// Result of one kernel launch.
struct LaunchStats {
  StatsCounters counters;
  double elapsed_ms = 0.0;
  std::uint64_t threads_launched = 0;
};

}  // namespace gms::gpu
