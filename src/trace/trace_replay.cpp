#include "trace/trace_replay.h"

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stack_builder.h"
#include "core/validating_manager.h"
#include "gpu/stats.h"

namespace gms::trace {
namespace {

/// One replayed allocation's published pointer. `ready` flips exactly once,
/// after `ptr` is stored — even when the replayed malloc failed (ptr stays
/// nullptr), so a waiting consumer can never deadlock on a failed producer.
struct Slot {
  std::atomic<void*> ptr{nullptr};
  std::atomic<bool> ready{false};
};

/// One SM's replay tallies, summed once the replay's launches are done.
/// Each SM's lanes run on its one worker thread, so plain increments
/// suffice; the padding keeps SMs off each other's cache line.
struct alignas(gpu::kDestructiveInterferenceSize) SmTally {
  std::uint64_t mallocs = 0, failed = 0, frees = 0, skipped = 0,
                warp_free_alls = 0;
};

struct MallocOrigin {
  std::int32_t slot;
  std::uint32_t kernel_seq;
  std::uint32_t thread_rank;
};

}  // namespace

TraceReplayer::TraceReplayer(const Trace& trace) {
  request_digest_ = canonical_digest(trace.events);

  // Kernel-begin markers carry the original block_dim (size = grid<<32|blk).
  std::unordered_map<std::uint32_t, unsigned> block_dims;
  for (const auto& ev : trace.events) {
    if (ev.event_kind() == EventKind::kKernelBegin) {
      block_dims[ev.kernel_seq] = static_cast<unsigned>(ev.size & 0xFFFFFFFF);
    }
  }

  // Walk allocation events in recorded publication order, linking each free
  // to the live malloc that produced its offset. kNullOffset mallocs (OOM)
  // and kNullOffset frees (free(nullptr)) stay unlinked by design.
  std::unordered_map<std::uint64_t, MallocOrigin> live;
  Segment* seg = nullptr;
  for (const auto& ev : trace.events) {
    if (!is_alloc_event(ev.event_kind())) continue;
    if (seg == nullptr || seg->kernel_seq != ev.kernel_seq) {
      seg = &segments_.emplace_back();
      seg->kernel_seq = ev.kernel_seq;
      if (auto it = block_dims.find(ev.kernel_seq); it != block_dims.end()) {
        seg->block_dim = it->second;
      }
    }
    if (ev.thread_rank >= seg->scripts.size()) {
      seg->scripts.resize(ev.thread_rank + 1);
    }
    Op op;
    op.kind = ev.kind;
    op.size = ev.size;
    switch (ev.event_kind()) {
      case EventKind::kMalloc:
      case EventKind::kWarpMalloc:
        if (ev.offset != kNullOffset) {
          op.slot = static_cast<std::int32_t>(slot_count_++);
          // A colliding offset means the recorded heap reused an address
          // while our map still held it (the old block's free was lost to
          // ring overflow); the newer allocation wins.
          live[ev.offset] =
              MallocOrigin{op.slot, ev.kernel_seq, ev.thread_rank};
        }
        break;
      case EventKind::kFree:
        if (ev.offset != kNullOffset) {
          auto it = live.find(ev.offset);
          if (it == live.end()) {
            ++unmatched_frees_;
            op.kind = 0;  // nothing to free in the replay: drop the op
          } else {
            op.link = it->second.slot;
            if (it->second.kernel_seq == ev.kernel_seq &&
                it->second.thread_rank != ev.thread_rank) {
              op.wait = true;
              ++hazards_;
            }
            live.erase(it);
          }
        }
        break;
      case EventKind::kWarpFreeAll:
        break;
      default:
        break;
    }
    if (op.kind != 0) seg->scripts[ev.thread_rank].push_back(op);
  }
}

ReplayResult TraceReplayer::replay(gpu::Device& device,
                                   core::MemoryManager& manager,
                                   const ReplayOptions& opts) {
  ReplayResult result;
  const auto& traits = manager.traits();
  const bool do_frees =
      opts.replay_frees && traits.supports_free && traits.individual_free;

  const auto slots = std::make_unique<Slot[]>(slot_count_);
  std::vector<SmTally> tallies(device.config().num_sms);

  for (const auto& seg : segments_) {
    const auto ranks = static_cast<std::uint64_t>(seg.scripts.size());
    if (ranks == 0) continue;
    unsigned block_dim = opts.block_dim != 0   ? opts.block_dim
                         : seg.block_dim != 0 ? seg.block_dim
                                              : 256;

    auto kernel = [&](gpu::ThreadCtx& ctx) {
      SmTally& tally = tallies[ctx.smid()];
      for (const Op& op : seg.scripts[ctx.thread_rank()]) {
        switch (static_cast<EventKind>(op.kind)) {
          case EventKind::kMalloc:
          case EventKind::kWarpMalloc: {
            void* p =
                static_cast<EventKind>(op.kind) == EventKind::kWarpMalloc
                    ? manager.warp_malloc(ctx, op.size)
                    : manager.malloc(ctx, op.size);
            ++tally.mallocs;
            if (p == nullptr) ++tally.failed;
            if (op.slot >= 0) {
              // Plain std::atomic, not ctx atomics: replay bookkeeping must
              // not pollute the target manager's instrumentation counters.
              slots[op.slot].ptr.store(p, std::memory_order_relaxed);
              slots[op.slot].ready.store(true, std::memory_order_release);
            }
            break;
          }
          case EventKind::kFree: {
            if (op.link < 0) {
              // Recorded free(nullptr): still a call the manager saw.
              ++tally.frees;
              if (do_frees) manager.free(ctx, nullptr);
              break;
            }
            if (!do_frees) {
              ++tally.skipped;
              break;
            }
            Slot& s = slots[op.link];
            while (!s.ready.load(std::memory_order_acquire)) {
              // Recorded free-before-malloc hazard (op.wait), or a producer
              // lane the scheduler simply hasn't run yet.
              ctx.backoff();
            }
            if (void* p = s.ptr.load(std::memory_order_relaxed)) {
              manager.free(ctx, p);
              ++tally.frees;
            } else {
              // This replay's malloc failed where the recording succeeded
              // (different target, smaller heap): nothing to free.
              ++tally.skipped;
            }
            break;
          }
          case EventKind::kWarpFreeAll:
            if (opts.replay_frees && traits.supports_free) {
              manager.warp_free_all(ctx);
              ++tally.warp_free_alls;
            } else {
              ++tally.skipped;
            }
            break;
          default:
            break;
        }
      }
    };

    auto stats = device.launch_n(ranks, kernel, block_dim);
    ++result.kernels;
    result.elapsed_ms += stats.elapsed_ms;
    result.counters += stats.counters;
  }

  for (const SmTally& t : tallies) {
    result.mallocs += t.mallocs;
    result.failed_mallocs += t.failed;
    result.frees += t.frees;
    result.skipped_frees += t.skipped;
    result.warp_free_alls += t.warp_free_alls;
  }
  result.hazards = hazards_;
  result.unmatched_frees = unmatched_frees_;
  return result;
}

ReplayVerdict replay_verdict_cell(const Trace& trace,
                                  const core::StackSpec& stack,
                                  unsigned num_sms, double watchdog_ms) {
  using core::SurveyRunner;
  const std::size_t heap = trace.header.heap_bytes != 0
                               ? trace.header.heap_bytes
                               : (64u << 20);
  if (num_sms == 0) {
    num_sms = trace.header.num_sms != 0 ? trace.header.num_sms : 4;
  }
  core::StackCell cell(stack, heap, num_sms, watchdog_ms);
  ReplayVerdict v;
  v.result = TraceReplayer(trace).replay(cell.dev(), cell.mgr());
  const ReplayResult& r = v.result;

  const auto audit = cell.mgr().audit();
  if (audit.supported && !audit.ok) {
    v.outcome = {SurveyRunner::kExitValidation, audit.to_string()};
    return v;
  }
  if (auto* validator = cell.stack().validator; validator != nullptr) {
    const auto report = validator->drain_report(/*leaks_are_errors=*/false);
    if (!report.clean()) {
      v.outcome = {SurveyRunner::kExitValidation, report.to_string()};
      return v;
    }
  }
  if (r.failed_mallocs > 0) {
    v.outcome = {SurveyRunner::kExitOom,
                 std::to_string(r.failed_mallocs) + " of " +
                     std::to_string(r.mallocs) + " mallocs failed"};
    return v;
  }
  v.outcome = {SurveyRunner::kExitOk,
               std::to_string(r.mallocs) + " mallocs, " +
                   std::to_string(r.frees) + " frees replayed clean"};
  return v;
}

}  // namespace gms::trace
