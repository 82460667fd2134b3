#pragma once

#include <cstdint>
#include <string>

namespace gms::core {

template <typename C>
class ConfigSchema;

/// Knobs of a "warpagg" stack stage ("warpagg{slab=16}"): the policy of the
/// adaptive "+W" warp-aggregation layer (alloc_core::WarpAggregator, which
/// marks mode switches and slab refills as trace::EventKind 32-34 markers).
/// Sites start on the per-lane passthrough path and switch to the aggregated
/// path only when the sampled contention EMA crosses `enter_cost` (back
/// below `exit_cost` switches out — hysteresis, so decisions don't flap). An
/// explicit warp_malloc always takes the aggregated path. The cost sampler
/// reads per-SM instrumentation counters (device atomics, CAS retries,
/// backoffs), never wall clock. At 1 SM those counters are exact, so a
/// recorded trace replays to the same per-site mode decisions; at 2 or more
/// SMs a lane spinning on a lock held by another SM counts backoffs for as
/// long as the holder's host thread takes, so decisions can vary run to run.
struct WarpAggSpec {
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

  /// Keys enter|exit|dwell|sample|probe|slab; exit must stay below enter.
  static const ConfigSchema<WarpAggSpec>& config_schema();
};

/// Host-side snapshot of the "+W" layer's bookkeeping — what bench_warpagg
/// prints per manager and what the adaptive columns are derived from. Its
/// fields are listed once, in schema(): to_string() and the bench JSON
/// both come from there.
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

  bool operator==(const AggregationReport&) const = default;
  static const ConfigSchema<AggregationReport>& schema();
  /// "[warpagg] {passthrough_calls=N,...}", every field in schema order.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace gms::core
