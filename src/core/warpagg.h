#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "gpu/thread_ctx.h"

namespace gms::core {

/// Parsed form of a `--warpagg=` spec: the policy knobs of the adaptive "+W"
/// warp-aggregation layer (alloc_core::WarpAggregator). The cost sampler
/// reads per-SM instrumentation counters (device atomics, CAS retries,
/// backoffs), never wall clock. At 1 SM those counters are exact, so a
/// recorded trace replays to the same per-site mode decisions; at 2 or more
/// SMs a lane spinning on a lock held by another SM counts backoffs for as
/// long as the holder's host thread takes, so decisions can vary run to run.
struct WarpAggSpec {
  /// kAdaptive: per-(SM, size-class) sites start on the per-lane passthrough
  /// path and switch to the aggregated path only when the sampled contention
  /// EMA crosses `enter_cost` (back below `exit_cost` switches out —
  /// hysteresis, so decisions don't flap). kAlways pins the aggregated path.
  enum class Policy : std::uint8_t { kAdaptive, kAlways };

  Policy policy = Policy::kAdaptive;
  /// Cost of one sampled inner malloc: the per-SM delta of
  /// `atomic_total + cas_failed + 4 * backoffs` across the call — device
  /// work plus contention. Lock serialisation (the CUDA stand-in's
  /// per-region spin lock) explodes the contention half; fill-dependent
  /// search loops (the stand-in's bitmap walk) grow the work half; cheap
  /// managers stay in the tens even when atomic-heavy (XMalloc's list
  /// pushes ~44/call) — so the default gap below puts every fast manager
  /// under `enter_cost` with ~2x margin while both slow regimes clear it.
  /// Entry demands STORM-GRADE evidence: one sampled call costing over 16x
  /// `enter_cost` (a lock storm's whole CAS burst landing in one delta)
  /// arms the SM before any site may aggregate; warm bursts — superblock
  /// replenishes, preempted retry runs — never reach it (DESIGN.md §12).
  /// The exit bar sits just under `enter_cost`: fast managers idle at
  /// 30–70 cost/call under the work-inclusive signal, so a site that
  /// entered on fluke evidence sees its probe EMA converge below 80 and
  /// drains back to per-lane within a few probe rounds. Flap-through-the-
  /// thin-gap cannot happen: re-entry is not EMA-based, it needs a fresh
  /// storm-grade spike.
  std::uint32_t enter_cost = 96;  ///< 16x this in one sample arms the SM
  std::uint32_t exit_cost = 80;   ///< probe EMA <= exit_cost: back to per-lane
  /// Minimum sampled updates a site must dwell in a mode before it may
  /// switch again (flap damper on top of the enter/exit gap).
  std::uint32_t dwell = 8;
  /// Passthrough mode: sample the cost of every Nth call per site. Arming
  /// is spike-based (a storm call costs thousands of units, and storms last
  /// thousands of calls), so sparse sampling loses no responsiveness — it
  /// only shrinks the tax the sampler levies on managers that never leave
  /// passthrough, which is the common case across the survey registry.
  std::uint32_t sample_every = 16;
  /// Aggregated mode: every Nth group serves per-lane as a probe round, the
  /// leader sampling the contention the lane path would see right now — the
  /// symmetric counterpart of passthrough sampling, so a site can discover
  /// that contention went away.
  std::uint32_t probe_every = 32;
  /// Per-SM slab window: alignment and usable span of the bump-carved cache
  /// the aggregated fast path refills in bulk from the inner manager.
  /// Power of two, KiB.
  std::uint32_t slab_kb = 64;

  /// Parses e.g. "adaptive,enter=8,exit=2,dwell=8,sample=4,probe=32,slab=64"
  /// (the leading policy token is optional and may appear alone: "always").
  /// Unknown keys/policies throw std::invalid_argument; omitted keys keep
  /// defaults.
  static WarpAggSpec parse(std::string_view spec);

  [[nodiscard]] std::string to_string() const;
};

/// One adaptive-aggregation event, reported through the AggregationObserver
/// seam (and from there into the trace stream as marker events outside the
/// canonical replay digest — the PR 6 resilience-marker idiom).
enum class AggEventKind : std::uint8_t {
  kModeAggregated,   ///< a site's EMA crossed enter_cost; now aggregating
  kModePassthrough,  ///< a site's EMA fell to exit_cost; back to per-lane
  kSlabRefill,       ///< the per-SM slab was refilled from the inner manager
};

[[nodiscard]] constexpr const char* to_string(AggEventKind k) {
  switch (k) {
    case AggEventKind::kModeAggregated: return "mode-aggregated";
    case AggEventKind::kModePassthrough: return "mode-passthrough";
    case AggEventKind::kSlabRefill: return "slab-refill";
  }
  return "?";
}

/// Seam between the aggregation layer (alloc_core) and the trace layer
/// (which alloc_core cannot see). The StackBuilder installs a recorder-backed
/// implementation whenever a stack has both a trace and a warpagg stage.
/// Called from simulated device lanes: implementations must be thread-safe
/// and must not allocate.
class AggregationObserver {
 public:
  virtual ~AggregationObserver() = default;
  /// `size` is the site's size-class bytes (mode switches) or the refill
  /// request (kSlabRefill); `detail` is the EMA at the switch (fixed point,
  /// see WarpAggregator) or the slab's arena offset.
  virtual void on_agg_event(gpu::ThreadCtx& ctx, AggEventKind kind,
                            std::uint64_t size, std::uint64_t detail) = 0;
};

/// Host-side snapshot of the "+W" layer's bookkeeping — what bench_warpagg
/// prints per manager and what the adaptive columns are derived from.
struct AggregationReport {
  std::uint64_t passthrough_calls = 0;  ///< mallocs served on the lane path
  std::uint64_t groups_combined = 0;    ///< coalesced groups served together
  std::uint64_t lanes_served = 0;       ///< lanes inside combined groups
  std::uint64_t slab_refills = 0;       ///< bulk refills from the inner mgr
  std::uint64_t slab_group_carves = 0;  ///< groups bump-carved from a slab
  std::uint64_t solo_fallbacks = 0;     ///< lanes degraded to per-lane inner
  std::uint64_t probes = 0;             ///< aggregated-mode leader re-probes
  std::uint64_t switches_to_agg = 0;
  std::uint64_t switches_to_pass = 0;

  [[nodiscard]] std::string to_string() const;
};

}  // namespace gms::core
