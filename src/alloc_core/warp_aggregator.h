#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/memory_manager.h"
#include "core/warpagg.h"
#include "gpu/device.h"
#include "trace/trace_event.h"

namespace gms::alloc_core {

/// Adaptive warp-aggregation adapter (the paper's §4 warp-cooperation
/// analysis, generalised): the warpagg stack stage, "+W" in a stack's name.
/// Two serving paths per request:
///
///  * **Per-lane passthrough** — the call forwards straight to the inner
///    manager, exactly like the undecorated base. Every Nth call per
///    (SM, size-class) site is sampled: the per-SM delta of
///    `atomic_total + cas_failed + 4*backoffs` across the inner call feeds
///    a fixed-point EMA, the deterministic cost signal (never wall clock).
///  * **Aggregated** — lanes that reach malloc together coalesce, their
///    16-byte-rounded requests are prefix-summed, and the group leader
///    bump-carves ONE span from a per-SM cached slab; the slab itself is
///    refilled in bulk (2x the slab window) from the inner manager. Lane
///    spans carry NO headers: the slab descriptor lives at the window's
///    alignment base, so free() recovers it by masking the payload pointer.
///    The last lane out of a retired slab returns the whole backing block
///    to the inner manager — one inner free for dozens of groups.
///
/// The adaptive policy switches each site between the two paths when the
/// EMA crosses `enter_cost`/`exit_cost` with a dwell damper (hysteresis).
/// In aggregated mode every Nth group re-probes the per-lane path so a site
/// can discover that contention went away. Decisions derive only from
/// deterministic per-SM counters; mode switches and slab refills are marked
/// (trace::EventKind 32-34) through the stack's trace::MarkerSink, outside
/// the canonical replay digest.
///
/// When the inner manager's traits advertise `bulk_free_capable` (and no
/// individual free — the FDGMalloc shape), the slab path drops even the
/// descriptor refcount: frees are no-ops and the backing blocks are
/// reclaimed wholesale by `warp_free_all`.
class WarpAggregator final : public core::MemoryManager {
 public:
  WarpAggregator(std::unique_ptr<core::MemoryManager> inner,
                 const core::WarpAggSpec& spec, gpu::Device& dev);

  [[nodiscard]] const core::AllocatorTraits& traits() const override {
    return traits_;
  }
  [[nodiscard]] void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override;
  void free(gpu::ThreadCtx& ctx, void* ptr) override;
  /// Warp-cooperative entry point: an explicit warp request always takes the
  /// aggregated path.
  [[nodiscard]] void* warp_malloc(gpu::ThreadCtx& ctx,
                                  std::size_t size) override;
  void warp_free_all(gpu::ThreadCtx& ctx) override;
  [[nodiscard]] core::AuditResult audit() override { return inner_->audit(); }

  [[nodiscard]] core::MemoryManager& inner() { return *inner_; }
  [[nodiscard]] const core::WarpAggSpec& spec() const { return spec_; }

  /// Points mode-switch and slab-refill markers at `sink` (not owned;
  /// nullptr = off). Host-side only; never swap sinks while kernels run.
  void set_marker_sink(trace::MarkerSink* sink) { sink_ = sink; }

  /// Host-side roll-up of the per-SM counters (quiescent reads).
  [[nodiscard]] core::AggregationReport report() const;
  /// Groups the leader combined / lanes served through them, for the
  /// bench's "32 mallocs became N inner calls" evidence.
  [[nodiscard]] std::uint64_t groups_combined() const {
    return report().groups_combined;
  }
  [[nodiscard]] std::uint64_t lanes_served() const {
    return report().lanes_served;
  }

 private:
  /// Descriptor at the alignment base of one slab window. Published by the
  /// owning SM's leader (magic stored last, release order); freeing lanes on
  /// any SM recover it from a payload pointer by masking with the window
  /// size and validating magic + self-pointer.
  struct SlabDesc {
    std::uint64_t magic = 0;
    SlabDesc* self = nullptr;     ///< == this; masked-lookup discriminator
    std::byte* raw = nullptr;     ///< the inner allocation backing the window
    std::uint64_t live_retired = 0;  ///< bit 63: retired; low bits: live lanes
    std::uint32_t cursor = 0;        ///< payload bytes carved (owner SM only)
    std::uint32_t capacity = 0;      ///< payload bytes available
  };
  static constexpr std::size_t kDescBytes = 64;  ///< payload starts here
  static_assert(sizeof(SlabDesc) <= kDescBytes);
  static constexpr std::uint64_t kSlabMagic = 0xA6651AB0C0FFEE42ull;
  static constexpr std::uint64_t kRetiredBit = std::uint64_t{1} << 63;

  /// Per-(SM, size-class) adaptive state. Only lanes of the owning SM touch
  /// it (one worker thread per SM), so plain fields suffice — and decorator
  /// bookkeeping never pollutes the instrumented device-atomic counters the
  /// sampler reads.
  struct SiteState {
    std::uint32_t ema = 0;  ///< contention EMA, kEmaFrac fixed point
    std::uint32_t sample_countdown = 1;
    std::uint32_t probe_countdown = 0;
    std::uint32_t samples_since_switch = 0;
    bool aggregated = false;
  };
  static constexpr unsigned kSites = 16;  ///< log2 buckets of 16B granules
  static constexpr unsigned kEmaFrac = 4;
  static constexpr unsigned kEmaAlphaShift = 3;  ///< alpha = 1/8
  /// A single sample over `enter_cost * kArmSpikeFactor` arms the SM: only
  /// saturated lock storms (whole CAS bursts landing in one delta) reach it.
  static constexpr std::uint32_t kArmSpikeFactor = 16;

  struct alignas(gpu::kDestructiveInterferenceSize) SmState {
    SiteState sites[kSites];
    /// SM-pooled cost EMA, fed by every sampled call regardless of site.
    /// Contention and heap-fill cost are properties of the shared inner
    /// manager, not of one size class — so ENTRY decisions consider the
    /// pooled signal too (a storm observed on any site arms them all, and
    /// the entering site inherits the pooled EMA as its starting evidence).
    /// EXIT stays per-site: only a site's own probes can release it.
    std::uint32_t ema = 0;
    /// Evidence latch, the sole ENTRY gate: set when one sampled call costs
    /// over `enter_cost * kArmSpikeFactor` on its own — the signature of a
    /// saturated lock storm, whose CAS burst lands whole inside a single
    /// delta. The latch outlives the pooled EMA's decay: workloads that
    /// visit size classes one at a time (the convergent-rotation shape)
    /// would otherwise lose the evidence before a late-rotation site
    /// samples. A probe-driven exit clears it — re-entry needs a new spike.
    bool armed = false;
    SlabDesc* slab = nullptr;  ///< current slab window (owner SM only)
    // Hot counters, plain per-SM (no cross-thread sharing on the hot path).
    std::uint64_t passthrough_calls = 0;
    std::uint64_t groups_combined = 0;
    std::uint64_t lanes_served = 0;
    std::uint64_t slab_refills = 0;
    std::uint64_t slab_group_carves = 0;
    std::uint64_t solo_fallbacks = 0;
    std::uint64_t probes = 0;
    std::uint64_t switches_to_agg = 0;
    std::uint64_t switches_to_pass = 0;
  };

  [[nodiscard]] static unsigned site_index(std::size_t size);
  [[nodiscard]] SiteState& site(gpu::ThreadCtx& ctx, std::size_t size);
  [[nodiscard]] std::uint64_t cost_now(gpu::ThreadCtx& ctx) const;
  void update_ema(gpu::ThreadCtx& ctx, SmState& sm, SiteState& st,
                  std::uint64_t cost, std::size_t size);

  /// The inner call both non-aggregated paths share (warp-scoped inners get
  /// warp_malloc; everyone else the per-thread entry).
  [[nodiscard]] void* inner_call(gpu::ThreadCtx& ctx, std::size_t size);
  [[nodiscard]] void* aggregated_malloc(gpu::ThreadCtx& ctx, std::size_t size,
                                        SiteState* st);
  [[nodiscard]] std::byte* carve(gpu::ThreadCtx& ctx, SmState& sm,
                                 std::size_t total, unsigned lanes);
  void retire(gpu::ThreadCtx& ctx, SlabDesc* d);
  void slab_free(gpu::ThreadCtx& ctx, SlabDesc* d);
  [[nodiscard]] bool in_arena(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= arena_lo_ && b < arena_hi_;
  }

  std::unique_ptr<core::MemoryManager> inner_;
  trace::MarkerSink* sink_ = nullptr;
  core::WarpAggSpec spec_;
  std::string name_;  ///< backs traits_.name ("<inner>+W")
  core::AllocatorTraits traits_{};
  std::byte* arena_lo_ = nullptr;
  std::byte* arena_hi_ = nullptr;
  std::size_t window_ = 0;        ///< slab alignment = window span
  std::size_t payload_cap_ = 0;   ///< window_ - kDescBytes
  std::size_t slab_alloc_bytes_ = 0;  ///< 2 * window_: refill request size
  bool slab_enabled_ = true;   ///< inner can serve the refill request at all
  bool bulk_free_inner_ = false;  ///< header-free, refcount-free slab mode
  bool warp_only_inner_ = false;
  /// Set at the first refill; lets free() skip the masked-descriptor lookup
  /// entirely on runs that never left passthrough.
  std::atomic<bool> slabs_ever_{false};
  unsigned num_sms_ = 1;
  std::unique_ptr<SmState[]> sm_;
};

}  // namespace gms::alloc_core
