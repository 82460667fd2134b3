#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace gms::gpu {
class ThreadCtx;
}  // namespace gms::gpu

namespace gms::trace {

/// What one trace record describes. Allocation events (the low range) carry
/// lane geometry plus size/offset; marker events (the high range) delimit
/// kernel launches and record harness interventions.
enum class EventKind : std::uint8_t {
  kMalloc = 1,       ///< per-thread malloc attempt (success or nullptr)
  kWarpMalloc = 2,   ///< warp-cooperative allocation (FDGMalloc path)
  kFree = 3,         ///< per-thread free
  kWarpFreeAll = 4,  ///< warp heap teardown (FDGMalloc's only free)

  kKernelBegin = 16,     ///< size = grid_dim << 32 | block_dim
  kKernelEnd = 17,       ///< size = 1 when the launch was cancelled
  kWatchdogCancel = 18,  ///< watchdog raised the cancellation flag
  kBarrier = 19,         ///< one block-wide barrier released on this SM

  // Recovery markers emitted by the "+R" resilient stage through its
  // MarkerSink. Markers, not allocation events: they ride along in exports
  // and replay tooling but stay outside canonical_bytes, so recovery
  // traffic never perturbs the replay-determinism digest.
  kRetrySuccess = 24,   ///< size = request; offset = winning attempt ordinal
  kFallbackAlloc = 25,  ///< reserve pool served; offset = arena offset
  kFallbackFree = 26,   ///< reserve block returned; offset = arena offset
  kBreakerTrip = 27,    ///< offset = consecutive failures at the trip
  kBreakerReset = 28,   ///< a half-open probe succeeded
  kUnrecovered = 29,    ///< escalation exhausted; the caller saw nullptr

  // Adaptive warp-aggregation markers emitted by the "+W" stage through its
  // MarkerSink (same marker contract as 24-29: exported and replayed
  // alongside allocation events but outside canonical_bytes, so path
  // switching never perturbs the replay-determinism digest).
  kAggModeAggregated = 32,   ///< size = site class bytes; offset = EMA (fp)
  kAggModePassthrough = 33,  ///< size = site class bytes; offset = EMA (fp)
  kAggSlabRefill = 34,       ///< size = refill bytes; offset = slab offset

  // Multi-device AllocService markers (DESIGN.md §13). Per-tenant records:
  // thread_rank carries the tenant id, block the shard id, kernel_seq the
  // service round. Markers like 24-34 — exported, counted and hashed by
  // trace::roll_up_tenants, never part of the canonical digest — so the
  // failover acceptance gate can hash exactly this sequence.
  kTenantShed = 40,        ///< size = ops shed; offset = tokens left
  kQuotaReject = 41,       ///< size = bytes asked; offset = outstanding bytes
  kShardHealthTrip = 42,   ///< offset = consecutive failed batches
  kShardHealthReset = 43,  ///< offset = probe round
  kTenantReshard = 44,     ///< offset = old shard << 32 | new shard
  kBatchRetry = 45,        ///< size = attempt ordinal; offset = batch seq
  kQuarantineEngage = 46,  ///< all shards sick: fork-contained fallback

  // Host-placement markers emitted by the host-based allocator family
  // (src/hostalloc, DESIGN.md §14) through its MarkerSink. Markers like
  // 24-46: exported and replayed alongside allocation events but outside
  // canonical_bytes, so host planning detail never perturbs the
  // replay-determinism digest.
  kHostCarve = 48,       ///< size = carved bytes; offset = arena offset
  kHostCoalesce = 49,    ///< size = merged bytes; offset = merges performed
  kHostStreamSync = 50,  ///< size = bytes made global; offset = stream id
  kHostTrim = 51,        ///< size = bytes released; offset = stream id
};

[[nodiscard]] constexpr bool is_alloc_event(EventKind k) {
  return k >= EventKind::kMalloc && k <= EventKind::kWarpFreeAll;
}

[[nodiscard]] constexpr const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kMalloc: return "malloc";
    case EventKind::kWarpMalloc: return "warp_malloc";
    case EventKind::kFree: return "free";
    case EventKind::kWarpFreeAll: return "warp_free_all";
    case EventKind::kKernelBegin: return "kernel_begin";
    case EventKind::kKernelEnd: return "kernel_end";
    case EventKind::kWatchdogCancel: return "watchdog_cancel";
    case EventKind::kBarrier: return "barrier";
    case EventKind::kRetrySuccess: return "retry_success";
    case EventKind::kFallbackAlloc: return "fallback_alloc";
    case EventKind::kFallbackFree: return "fallback_free";
    case EventKind::kBreakerTrip: return "breaker_trip";
    case EventKind::kBreakerReset: return "breaker_reset";
    case EventKind::kUnrecovered: return "unrecovered";
    case EventKind::kAggModeAggregated: return "agg_mode_aggregated";
    case EventKind::kAggModePassthrough: return "agg_mode_passthrough";
    case EventKind::kAggSlabRefill: return "agg_slab_refill";
    case EventKind::kTenantShed: return "tenant_shed";
    case EventKind::kQuotaReject: return "quota_reject";
    case EventKind::kShardHealthTrip: return "shard_health_trip";
    case EventKind::kShardHealthReset: return "shard_health_reset";
    case EventKind::kTenantReshard: return "tenant_reshard";
    case EventKind::kBatchRetry: return "batch_retry";
    case EventKind::kQuarantineEngage: return "quarantine_engage";
    case EventKind::kHostCarve: return "host_carve";
    case EventKind::kHostCoalesce: return "host_coalesce";
    case EventKind::kHostStreamSync: return "host_stream_sync";
    case EventKind::kHostTrim: return "host_trim";
  }
  return "?";
}

/// The "+R" recovery-marker range (trace subtype of the escalation chain).
[[nodiscard]] constexpr bool is_resilience_event(EventKind k) {
  return k >= EventKind::kRetrySuccess && k <= EventKind::kUnrecovered;
}

/// The "+W" adaptive-aggregation marker range.
[[nodiscard]] constexpr bool is_aggregation_event(EventKind k) {
  return k >= EventKind::kAggModeAggregated &&
         k <= EventKind::kAggSlabRefill;
}

/// The AllocService marker range (shed / quota / health / failover).
[[nodiscard]] constexpr bool is_service_event(EventKind k) {
  return k >= EventKind::kTenantShed && k <= EventKind::kQuarantineEngage;
}

/// The host-based-family placement-marker range (carve / coalesce / sync).
[[nodiscard]] constexpr bool is_host_placement_event(EventKind k) {
  return k >= EventKind::kHostCarve && k <= EventKind::kHostTrim;
}

/// `offset` value for "no pointer": failed mallocs and null frees.
inline constexpr std::uint64_t kNullOffset = ~std::uint64_t{0};
/// High bit marking a pointer outside the device arena (e.g. the CUDA
/// stand-in's host-heap relay). The low bits are pointer-derived, stable
/// within one recording (enough to pair a free with its malloc) but
/// meaningless across runs. Real arena offsets never come close to this bit.
inline constexpr std::uint64_t kForeignOffsetFlag = std::uint64_t{1} << 63;

/// One fixed-size, trivially copyable trace record — written byte-verbatim
/// into .gmtrace files, so the layout is part of the format version.
struct TraceEvent {
  std::uint64_t seq = 0;   ///< global publication order within the recording
  std::uint64_t t_ns = 0;  ///< ns since the recorder's epoch (call entry)
  /// malloc/warp_malloc: requested bytes. kKernelBegin: grid<<32|block.
  /// kKernelEnd: 1 if cancelled. Otherwise 0.
  std::uint64_t size = 0;
  /// Arena offset of the returned (malloc) or submitted (free) payload;
  /// kNullOffset for nullptr, kForeignOffsetFlag-tagged outside the arena.
  std::uint64_t offset = 0;
  std::uint32_t thread_rank = 0;
  std::uint32_t block = 0;
  std::uint32_t kernel_seq = 0;  ///< 1-based launch ordinal in the session
  /// Ordinal of this event among its lane's allocation events within the
  /// same kernel — the replay ordering key. Assigned by drain(), not on the
  /// hot path (per-lane order is already implied by seq).
  std::uint32_t lane_op = 0;
  std::uint32_t dur_ns = 0;     ///< call duration, saturated at ~4.29 s
  std::uint32_t atomics = 0;    ///< StatsCounters::atomic_total() delta
  std::uint32_t cas_failed = 0; ///< CAS-retry delta over the call
  std::uint8_t kind = 0;        ///< EventKind
  std::uint8_t smid = 0;
  std::uint8_t lane = 0;        ///< lane within the warp
  std::uint8_t warp = 0;        ///< warp within the block

  [[nodiscard]] EventKind event_kind() const {
    return static_cast<EventKind>(kind);
  }
};

static_assert(sizeof(TraceEvent) == 64,
              "TraceEvent layout is part of the .gmtrace format");
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// The one seam through which layers below gms_trace (the "+R" resilient
/// stage, the "+W" aggregator, the host-based family) record lane markers.
/// Header-only, so those layers hold a sink without linking gms_trace; the
/// StackBuilder points them at the stack's TraceRecorder when the stack has
/// a trace stage. Called from simulated device lanes: implementations must
/// be thread-safe and must not allocate.
class MarkerSink {
 public:
  virtual ~MarkerSink() = default;
  /// Records one `kind` marker for the calling lane; `size` and `detail`
  /// (the event's offset field) carry what the kind documents above.
  virtual void mark(gpu::ThreadCtx& ctx, EventKind kind, std::uint64_t size,
                    std::uint64_t detail) = 0;
};

/// Emits one marker when a sink is installed: a null sink (tracing off)
/// costs the caller one load and a branch.
inline void mark(MarkerSink* sink, gpu::ThreadCtx& ctx, EventKind kind,
                 std::uint64_t size, std::uint64_t detail) {
  if (sink != nullptr) sink->mark(ctx, kind, size, detail);
}

}  // namespace gms::trace
