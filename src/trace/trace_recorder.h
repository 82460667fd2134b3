#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "gpu/launch_observer.h"
#include "gpu/stats.h"
#include "gpu/thread_ctx.h"
#include "trace/trace_event.h"

namespace gms::trace {

/// Lock-free allocation-event recorder: one fixed-capacity ring per SM plus
/// one for host-side markers, each cache-line padded like SmStatsSlot so
/// adjacent SMs never bounce a line on their append cursors. Each ring has
/// exactly one producer (its SM's worker thread; the host ring the launching
/// thread), so an append is one fetch_add on the ring cursor plus a plain
/// slot store — no CAS loops on the hot path. When a ring fills, further
/// events are dropped and counted (never overwritten: a truncated-but-exact
/// prefix replays; a ring that silently recycled its oldest events would
/// fabricate free-before-malloc hazards).
///
/// Recording is off until set_enabled(true); while disabled every caller
/// (TracingManager, the launch callbacks, mark()) bails on one relaxed load.
class TraceRecorder final : public gpu::LaunchObserver, public MarkerSink {
 public:
  struct Options {
    std::size_t ring_capacity = std::size_t{1} << 16;  ///< events per ring
  };

  explicit TraceRecorder(unsigned num_sms);  // default Options
  TraceRecorder(unsigned num_sms, Options opts);

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_release);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] unsigned num_sms() const { return num_sms_; }

  /// Nanoseconds since this recorder's construction (the trace timebase).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Current 1-based launch ordinal (bumped by on_kernel_begin).
  [[nodiscard]] std::uint32_t kernel_seq() const {
    return kernel_seq_.load(std::memory_order_relaxed);
  }

  /// Appends `ev` to SM ring `smid` (any smid >= num_sms lands in the host
  /// ring). Fills ev.seq and ev.kernel_seq; the caller fills the rest.
  /// Safe only from each ring's single producer thread.
  void record(unsigned smid, TraceEvent ev);

  // ---- MarkerSink (lane markers from the +R, +W and host layers) --------
  void mark(gpu::ThreadCtx& ctx, EventKind kind, std::uint64_t size,
            std::uint64_t detail) override;

  // ---- gpu::LaunchObserver (markers) ------------------------------------
  void on_kernel_begin(unsigned grid_dim, unsigned block_dim) override;
  void on_kernel_end(bool cancelled) override;
  void on_watchdog_cancel() override;
  void on_barrier_release(unsigned smid, unsigned block_idx) override;

  /// Events lost to full rings so far.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Events currently buffered (quiescent estimate).
  [[nodiscard]] std::uint64_t buffered() const;

  /// Quiescent drain: copies out every buffered event ordered by seq (the
  /// global publication order), assigns lane_op ordinals to allocation
  /// events, and resets the rings (drop counts and the seq/kernel counters
  /// keep running, so consecutive drains concatenate cleanly).
  [[nodiscard]] std::vector<TraceEvent> drain();

 private:
  /// Ring slots are raw ::operator new storage, never value-initialised:
  /// a ring's pages fault in only as far as it fills, and drain() reads
  /// only the slots record() wrote.
  struct SlotsDelete {
    void operator()(TraceEvent* p) const { ::operator delete(p); }
  };
  struct alignas(gpu::kDestructiveInterferenceSize) Ring {
    std::unique_ptr<TraceEvent[], SlotsDelete> slots;
    std::atomic<std::uint64_t> next{0};     ///< append cursor (may overrun)
    std::atomic<std::uint64_t> dropped{0};
  };

  unsigned num_sms_;
  std::size_t capacity_;
  std::unique_ptr<Ring[]> rings_;  ///< [num_sms] per-SM + [num_sms_] host
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> kernel_seq_{0};
  std::chrono::steady_clock::time_point epoch_;
  /// Bumped by every event from every SM: on a line of its own, so the
  /// bump does not invalidate the read-mostly fields above on other SMs.
  alignas(gpu::kDestructiveInterferenceSize)
      std::atomic<std::uint64_t> seq_{0};
};

/// Stamps the calling lane's geometry onto `ev`: every lane-scoped record
/// (allocation events and markers alike) carries the same five fields.
inline void stamp_lane(TraceEvent& ev, const gpu::ThreadCtx& ctx) {
  ev.thread_rank = ctx.thread_rank();
  ev.block = ctx.block_idx();
  ev.smid = static_cast<std::uint8_t>(ctx.smid());
  ev.lane = static_cast<std::uint8_t>(ctx.lane_id());
  ev.warp = static_cast<std::uint8_t>(ctx.warp_in_block());
}

}  // namespace gms::trace
