#pragma once

#include <cstdint>
#include <vector>

#include "core/memory_manager.h"
#include "core/stack_spec.h"
#include "core/survey_runner.h"
#include "gpu/device.h"
#include "gpu/stats.h"
#include "trace/trace_format.h"

namespace gms::trace {

struct ReplayOptions {
  /// Block size for the replay launches. 0 = use the block_dim captured in
  /// each kernel's begin marker, falling back to 256 when the trace carries
  /// no marker for that kernel (markers live in the host ring and can be
  /// lost to overflow).
  unsigned block_dim = 0;
  /// Replay free/warp_free_all events. Forced off for targets whose traits
  /// say they cannot free (Atomic baseline) or cannot free individually
  /// (FDGMalloc); those frees are counted in skipped_frees instead.
  bool replay_frees = true;
};

struct ReplayResult {
  std::uint64_t kernels = 0;         ///< launches replayed
  std::uint64_t mallocs = 0;         ///< malloc/warp_malloc calls issued
  std::uint64_t failed_mallocs = 0;  ///< of those, returned nullptr
  std::uint64_t frees = 0;           ///< free calls issued (incl. nullptr)
  std::uint64_t skipped_frees = 0;   ///< dropped: target can't free, or the
                                     ///< replayed malloc they pair with failed
  std::uint64_t warp_free_alls = 0;
  std::uint64_t hazards = 0;          ///< cross-lane same-kernel free→malloc
                                      ///< links that required a wait
  std::uint64_t unmatched_frees = 0;  ///< frees with no recorded malloc
  double elapsed_ms = 0.0;            ///< sum over replay launches
  gpu::StatsCounters counters;        ///< summed device instrumentation
};

/// Re-drives a captured allocation stream against any MemoryManager.
///
/// Ordering contract (DESIGN.md §9): within one kernel, each lane's
/// allocation calls are reissued in the lane's recorded order (lane_op);
/// kernel boundaries are preserved as launch boundaries (a kernel's every
/// event completes before the next kernel starts); no ordering between
/// different lanes of one kernel is imposed *except* where a free links to a
/// malloc performed by another lane in the same kernel — a recorded
/// free-before-malloc hazard — in which case the freeing lane spin-waits
/// (ThreadCtx::backoff) until the producing lane's malloc has published its
/// replayed pointer. Frees always free the pointer their linked malloc
/// returned in *this* replay, never the recorded offset.
///
/// Construction does the host-side prep once (per-kernel per-lane scripts,
/// free→malloc linking via a live-offset map); replay() can then be called
/// repeatedly, against different managers and devices.
class TraceReplayer {
 public:
  explicit TraceReplayer(const Trace& trace);

  /// The canonical digest of the source trace's allocation requests —
  /// compare with a digest of the re-captured stream to verify determinism.
  [[nodiscard]] std::uint64_t request_digest() const {
    return request_digest_;
  }

  /// Hazards/unmatched frees discovered during prep (replay-independent).
  [[nodiscard]] std::uint64_t hazards() const { return hazards_; }
  [[nodiscard]] std::uint64_t unmatched_frees() const {
    return unmatched_frees_;
  }
  [[nodiscard]] std::uint64_t kernels() const { return segments_.size(); }

  /// Replays the stream on `device` against `manager`. The manager must have
  /// been built over `device`'s arena (bench_replay constructs both from the
  /// trace header).
  ReplayResult replay(gpu::Device& device, core::MemoryManager& manager,
                      const ReplayOptions& opts = {});

 private:
  struct Op {
    std::uint64_t size = 0;
    std::int32_t slot = -1;  ///< malloc: pointer slot to publish
    std::int32_t link = -1;  ///< free: slot of the malloc being freed
    bool wait = false;       ///< free: producer is another lane, spin first
    std::uint8_t kind = 0;   ///< EventKind
  };

  struct Segment {
    std::uint32_t kernel_seq = 0;  ///< absolute ordinal in the recording
    unsigned block_dim = 0;        ///< from the kernel-begin marker, 0 = lost
    std::vector<std::vector<Op>> scripts;  ///< indexed by thread_rank
  };

  std::vector<Segment> segments_;
  std::size_t slot_count_ = 0;
  std::uint64_t request_digest_ = 0;
  std::uint64_t hazards_ = 0;
  std::uint64_t unmatched_frees_ = 0;
};

/// A replay classified with the survey exit-code protocol, plus the replay
/// counts it was classified from.
struct ReplayVerdict {
  core::CellOutcome outcome;
  ReplayResult result;
};

/// The one replay verdict: replays `trace` once against `stack` on a fresh
/// core::StackCell shaped by the trace header (its heap, else 64 MiB; SMs
/// from `num_sms`, else the header, else 4) and maps the survivable
/// outcomes:
///   - a failed post-replay audit or a dirty validation report ->
///     kExitValidation (leaks are NOT errors: minimized traces drop frees by
///     construction);
///   - any kernel-visible failed malloc -> kExitOom (heap or reserve
///     exhausted; under a "resilient>" stack the recovery chain itself ran
///     dry);
///   - otherwise kExitOk.
/// Callers run it inside a SurveyRunner fork, so crashes and hangs classify
/// themselves: the corpus sweep, the soak minimizer, corpus_gen and the
/// config tuner all score replays through it.
[[nodiscard]] ReplayVerdict replay_verdict_cell(const Trace& trace,
                                                const core::StackSpec& stack,
                                                unsigned num_sms,
                                                double watchdog_ms = 8000);

}  // namespace gms::trace
