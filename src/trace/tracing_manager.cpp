#include "trace/tracing_manager.h"

#include <limits>

#include "gpu/thread_ctx.h"

namespace gms::trace {
namespace {

std::uint32_t saturate32(std::uint64_t v) {
  return v > std::numeric_limits<std::uint32_t>::max()
             ? std::numeric_limits<std::uint32_t>::max()
             : static_cast<std::uint32_t>(v);
}

}  // namespace

TracingManager::TracingManager(std::unique_ptr<core::MemoryManager> inner,
                               TraceRecorder& recorder,
                               gpu::DeviceArena& arena)
    : inner_(std::move(inner)), recorder_(recorder), arena_(arena) {
  init_ms_ = inner_->init_ms();
}

std::uint64_t TracingManager::encode_offset(const void* p) const {
  if (p == nullptr) return kNullOffset;
  if (arena_.contains(p)) return arena_.offset_of(p);
  // Out-of-arena relay (e.g. the CUDA stand-in's host heap): keep the raw
  // pointer bits under the foreign flag — stable within one recording, which
  // is all free/malloc pairing needs.
  return kForeignOffsetFlag |
         (reinterpret_cast<std::uintptr_t>(p) & ~kForeignOffsetFlag);
}

void* TracingManager::traced_malloc(gpu::ThreadCtx& ctx, std::size_t size,
                                    EventKind kind) {
  const auto& stats = ctx.stats();
  const std::uint64_t atomics0 = stats.atomic_total();
  const std::uint64_t cas0 = stats.atomic_cas_failed;
  const std::uint64_t t0 = recorder_.now_ns();

  void* p = kind == EventKind::kWarpMalloc ? inner_->warp_malloc(ctx, size)
                                           : inner_->malloc(ctx, size);

  TraceEvent ev;
  ev.kind = static_cast<std::uint8_t>(kind);
  ev.t_ns = t0;
  ev.dur_ns = saturate32(recorder_.now_ns() - t0);
  ev.size = size;
  ev.offset = encode_offset(p);
  ev.atomics = saturate32(stats.atomic_total() - atomics0);
  ev.cas_failed = saturate32(stats.atomic_cas_failed - cas0);
  stamp_lane(ev, ctx);
  recorder_.record(ctx.smid(), ev);
  return p;
}

void* TracingManager::malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  if (!recorder_.enabled()) return inner_->malloc(ctx, size);
  return traced_malloc(ctx, size, EventKind::kMalloc);
}

void* TracingManager::warp_malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  if (!recorder_.enabled()) return inner_->warp_malloc(ctx, size);
  return traced_malloc(ctx, size, EventKind::kWarpMalloc);
}

void TracingManager::free(gpu::ThreadCtx& ctx, void* ptr) {
  if (!recorder_.enabled()) {
    inner_->free(ctx, ptr);
    return;
  }
  const auto& stats = ctx.stats();
  const std::uint64_t atomics0 = stats.atomic_total();
  const std::uint64_t cas0 = stats.atomic_cas_failed;
  const std::uint64_t t0 = recorder_.now_ns();
  // Encode before the call: a recycling allocator may hand the block to
  // another lane mid-call, but the submitted pointer is what the event means.
  const std::uint64_t offset = encode_offset(ptr);

  inner_->free(ctx, ptr);

  TraceEvent ev;
  ev.kind = static_cast<std::uint8_t>(EventKind::kFree);
  ev.t_ns = t0;
  ev.dur_ns = saturate32(recorder_.now_ns() - t0);
  ev.offset = offset;
  ev.atomics = saturate32(stats.atomic_total() - atomics0);
  ev.cas_failed = saturate32(stats.atomic_cas_failed - cas0);
  stamp_lane(ev, ctx);
  recorder_.record(ctx.smid(), ev);
}

void TracingManager::warp_free_all(gpu::ThreadCtx& ctx) {
  if (!recorder_.enabled()) {
    inner_->warp_free_all(ctx);
    return;
  }
  const auto& stats = ctx.stats();
  const std::uint64_t atomics0 = stats.atomic_total();
  const std::uint64_t cas0 = stats.atomic_cas_failed;
  const std::uint64_t t0 = recorder_.now_ns();

  inner_->warp_free_all(ctx);

  TraceEvent ev;
  ev.kind = static_cast<std::uint8_t>(EventKind::kWarpFreeAll);
  ev.t_ns = t0;
  ev.dur_ns = saturate32(recorder_.now_ns() - t0);
  ev.offset = kNullOffset;
  ev.atomics = saturate32(stats.atomic_total() - atomics0);
  ev.cas_failed = saturate32(stats.atomic_cas_failed - cas0);
  stamp_lane(ev, ctx);
  recorder_.record(ctx.smid(), ev);
}

}  // namespace gms::trace
