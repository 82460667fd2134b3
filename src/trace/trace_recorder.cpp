#include "trace/trace_recorder.h"

#include <algorithm>
#include <unordered_map>

namespace gms::trace {

TraceRecorder::TraceRecorder(unsigned num_sms)
    : TraceRecorder(num_sms, Options{}) {}

TraceRecorder::TraceRecorder(unsigned num_sms, Options opts)
    : num_sms_(num_sms),
      capacity_(opts.ring_capacity),
      rings_(std::make_unique<Ring[]>(num_sms + 1)),
      epoch_(std::chrono::steady_clock::now()) {
  for (unsigned i = 0; i <= num_sms_; ++i) {
    rings_[i].slots.reset(static_cast<TraceEvent*>(
        ::operator new(capacity_ * sizeof(TraceEvent))));
  }
}

std::uint64_t TraceRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceRecorder::record(unsigned smid, TraceEvent ev) {
  Ring& ring = rings_[std::min<unsigned>(smid, num_sms_)];
  const std::uint64_t idx = ring.next.fetch_add(1, std::memory_order_relaxed);
  if (idx >= capacity_) {
    ring.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ev.seq = seq_.fetch_add(1, std::memory_order_acq_rel);
  ev.kernel_seq = kernel_seq_.load(std::memory_order_relaxed);
  ring.slots[idx] = ev;
}

void TraceRecorder::mark(gpu::ThreadCtx& ctx, EventKind kind,
                         std::uint64_t size, std::uint64_t detail) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = static_cast<std::uint8_t>(kind);
  ev.t_ns = now_ns();
  ev.size = size;
  ev.offset = detail;
  stamp_lane(ev, ctx);
  record(ctx.smid(), ev);
}

void TraceRecorder::on_kernel_begin(unsigned grid_dim, unsigned block_dim) {
  kernel_seq_.fetch_add(1, std::memory_order_relaxed);
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = static_cast<std::uint8_t>(EventKind::kKernelBegin);
  ev.t_ns = now_ns();
  ev.size = (std::uint64_t{grid_dim} << 32) | block_dim;
  ev.offset = kNullOffset;
  record(num_sms_, ev);
}

void TraceRecorder::on_kernel_end(bool cancelled) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = static_cast<std::uint8_t>(EventKind::kKernelEnd);
  ev.t_ns = now_ns();
  ev.size = cancelled ? 1 : 0;
  ev.offset = kNullOffset;
  record(num_sms_, ev);
}

void TraceRecorder::on_watchdog_cancel() {
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = static_cast<std::uint8_t>(EventKind::kWatchdogCancel);
  ev.t_ns = now_ns();
  ev.offset = kNullOffset;
  record(num_sms_, ev);
}

void TraceRecorder::on_barrier_release(unsigned smid, unsigned block_idx) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = static_cast<std::uint8_t>(EventKind::kBarrier);
  ev.t_ns = now_ns();
  ev.offset = kNullOffset;
  ev.block = block_idx;
  ev.smid = static_cast<std::uint8_t>(smid);
  record(smid, ev);
}

std::uint64_t TraceRecorder::dropped() const {
  std::uint64_t total = 0;
  for (unsigned i = 0; i <= num_sms_; ++i) {
    total += rings_[i].dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t TraceRecorder::buffered() const {
  std::uint64_t total = 0;
  for (unsigned i = 0; i <= num_sms_; ++i) {
    total += std::min<std::uint64_t>(
        rings_[i].next.load(std::memory_order_relaxed), capacity_);
  }
  return total;
}

std::vector<TraceEvent> TraceRecorder::drain() {
  std::vector<TraceEvent> events;
  events.reserve(buffered());
  for (unsigned i = 0; i <= num_sms_; ++i) {
    Ring& ring = rings_[i];
    const auto used = std::min<std::uint64_t>(
        ring.next.load(std::memory_order_acquire), capacity_);
    events.insert(events.end(), ring.slots.get(), ring.slots.get() + used);
    ring.next.store(0, std::memory_order_release);
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  // lane_op: per (kernel, thread) ordinal over allocation events, in seq
  // order — the key the replayer preserves per lane.
  std::unordered_map<std::uint64_t, std::uint32_t> lane_ops;
  for (auto& ev : events) {
    if (!is_alloc_event(ev.event_kind())) continue;
    const std::uint64_t key =
        (std::uint64_t{ev.kernel_seq} << 32) | ev.thread_rank;
    ev.lane_op = lane_ops[key]++;
  }
  return events;
}

}  // namespace gms::trace
