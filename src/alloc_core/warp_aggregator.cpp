#include "alloc_core/warp_aggregator.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "alloc_core/size_class_map.h"
#include "core/stack_spec.h"

namespace gms::alloc_core {

namespace {

/// Broadcast sentinel distinguishing "probe round: everyone serve per-lane"
/// from nullptr "carve failed: degrade per-lane". Never a valid pointer.
std::byte* probe_sentinel() {
  return reinterpret_cast<std::byte*>(std::uintptr_t{1});
}

/// Smallest slab window worth bump-carving: below this a refill covers so
/// few groups that the cache is churn, not amortisation.
constexpr std::size_t kMinWindow = 16u * 1024;

}  // namespace

WarpAggregator::WarpAggregator(std::unique_ptr<core::MemoryManager> inner,
                               const core::WarpAggSpec& spec, gpu::Device& dev)
    : inner_(std::move(inner)), spec_(spec) {
  name_ = std::string(inner_->traits().name);
  name_ += core::StackSpec::suffix(core::StackSpec::Stage::kWarpAgg);
  // Lane spans are header-free (slab descriptors live at the window base and
  // per-lane fallbacks forward requests verbatim), so unlike the validate
  // stage there is no per-allocation pad and max_direct_size is preserved.
  traits_ = inner_->traits();
  traits_.name = name_;
  init_ms_ = inner_->init_ms();

  arena_lo_ = dev.arena().data();
  arena_hi_ = arena_lo_ + dev.arena().size();
  num_sms_ = dev.config().num_sms;
  sm_ = std::make_unique<SmState[]>(num_sms_);

  const auto& it = inner_->traits();
  warp_only_inner_ = it.warp_level_only;
  bulk_free_inner_ = it.bulk_free_capable && !it.individual_free;

  // Shrink the window until the inner manager can serve the 2x refill
  // request DIRECTLY (a relayed refill would live on the host heap, outside
  // the masked-descriptor lookup). Below kMinWindow, disable the slab: the
  // aggregated path then degrades to per-lane service, and the adaptive
  // policy never routes a site into it.
  window_ = std::size_t{spec_.slab_kb} * 1024;
  while (window_ > kMinWindow && 2 * window_ > it.max_direct_size) {
    window_ >>= 1;
  }
  slab_alloc_bytes_ = 2 * window_;
  payload_cap_ = window_ - kDescBytes;
  slab_enabled_ = slab_alloc_bytes_ <= it.max_direct_size;
}

unsigned WarpAggregator::site_index(std::size_t size) {
  // log2 buckets of 16-byte granules: 16B -> 1, 32B -> 2, ... clamped.
  const std::size_t granules = SizeClassMap::round16(size) >> 4;
  const auto w = static_cast<unsigned>(std::bit_width(granules));
  return std::min(w, kSites - 1);
}

WarpAggregator::SiteState& WarpAggregator::site(gpu::ThreadCtx& ctx,
                                                std::size_t size) {
  return sm_[ctx.smid()].sites[site_index(size)];
}

std::uint64_t WarpAggregator::cost_now(gpu::ThreadCtx& ctx) const {
  // The deterministic cost signal, two components summed from the per-SM
  // counters:
  //  * contention — CAS retries and polite-spin backoffs (weighted: one
  //    backoff concedes a whole fiber slice);
  //  * work — total instrumented device-memory atomics, the latency proxy.
  //    A lock can sit just below its spin-storm threshold while the inner
  //    manager's search loops (CUDA stand-in bitmap walks, ScatterAlloc
  //    hashing) grow with heap fill; those loops run through the
  //    instrumented accessors, so their length is visible here even when
  //    cas_failed is silent.
  // A delta across one inner call also includes work by the other lanes
  // this SM interleaves during the call's suspension points — which is
  // exactly the "how loaded is this SM right now" proxy we want, and it
  // stays reproducible because fiber interleaving is deterministic.
  const gpu::StatsCounters& s = ctx.stats();
  return s.atomic_total() + s.atomic_cas_failed + 4 * s.backoffs;
}

void* WarpAggregator::inner_call(gpu::ThreadCtx& ctx, std::size_t size) {
  return warp_only_inner_ ? inner_->warp_malloc(ctx, size)
                          : inner_->malloc(ctx, size);
}

void WarpAggregator::update_ema(gpu::ThreadCtx& ctx, SmState& sm,
                                SiteState& st, std::uint64_t cost,
                                std::size_t size) {
  const auto clamped =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(cost, 4096));
  const std::uint32_t sample = clamped << kEmaFrac;
  st.ema = st.ema - (st.ema >> kEmaAlphaShift) + (sample >> kEmaAlphaShift);
  sm.ema = sm.ema - (sm.ema >> kEmaAlphaShift) + (sample >> kEmaAlphaShift);
  // Arming keys on the storm's signature, not on averages: a saturated
  // spin-lock storm dumps a whole CAS-retry burst into ONE sampled delta
  // (the CUDA stand-in's storms put ~99% of their hot samples at the 4096
  // clamp), while fast managers top out an order of magnitude lower even
  // on their worst call (XMalloc's hottest sample in a million calls was
  // ~1024 — a preempted lock-free retry run). A single spike over
  // 16x enter_cost is therefore storm-grade on its own; anything softer
  // (streaks of warm samples, EMA crossings) turned out to fire on
  // preemption clustering and misroute bursty-but-fast managers.
  if (clamped >= spec_.enter_cost * kArmSpikeFactor) sm.armed = true;
  ++st.samples_since_switch;
  if (st.samples_since_switch < spec_.dwell) return;

  const std::uint32_t enter = spec_.enter_cost << kEmaFrac;
  if (!st.aggregated && slab_enabled_ && sm.armed) {
    // Inherit the strongest evidence available so the site's own probes
    // must decay it below exit_cost before the site may leave again.
    st.ema = std::max({st.ema, sm.ema, enter});
    st.aggregated = true;
    st.samples_since_switch = 0;
    st.probe_countdown = spec_.probe_every;
    ++sm.switches_to_agg;
    trace::mark(sink_, ctx, trace::EventKind::kAggModeAggregated,
                SizeClassMap::round16(size), st.ema);
  } else if (st.aggregated && st.ema <= (spec_.exit_cost << kEmaFrac)) {
    st.aggregated = false;
    st.samples_since_switch = 0;
    st.sample_countdown = 1;  // re-sample immediately back on the lane path
    // Probes proved the storm is gone; drop the latch so re-entry (here or
    // on this SM's sibling sites) needs a fresh storm-grade spike.
    sm.armed = false;
    ++sm.switches_to_pass;
    trace::mark(sink_, ctx, trace::EventKind::kAggModePassthrough,
                SizeClassMap::round16(size), st.ema);
  }
}

void* WarpAggregator::malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  SmState& sm = sm_[ctx.smid()];
  SiteState& st = sm.sites[site_index(size)];
  if (st.aggregated) return aggregated_malloc(ctx, size, &st);
  // Per-lane passthrough: the base manager's own path, plus a countdown and
  // (on sampled calls) two counter reads. No atomics, no collectives.
  ++sm.passthrough_calls;
  if (--st.sample_countdown != 0) return inner_call(ctx, size);
  st.sample_countdown = spec_.sample_every;
  const std::uint64_t c0 = cost_now(ctx);
  void* p = inner_call(ctx, size);
  update_ema(ctx, sm, st, cost_now(ctx) - c0, size);
  return p;
}

void* WarpAggregator::warp_malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  return aggregated_malloc(ctx, size, nullptr);
}

void* WarpAggregator::aggregated_malloc(gpu::ThreadCtx& ctx, std::size_t size,
                                        SiteState* st) {
  SmState& sm = sm_[ctx.smid()];
  if (!slab_enabled_ || size > payload_cap_) {
    // The slab cannot serve this request (inner manager too small a direct
    // ceiling, or an oversized lane): serve per-lane without paying for
    // collectives. Adaptive sites keep sampling here so the EMA can still
    // release them back to passthrough when contention fades.
    ++sm.solo_fallbacks;
    if (st != nullptr && --st->sample_countdown == 0) {
      st->sample_countdown = spec_.sample_every;
      const std::uint64_t c0 = cost_now(ctx);
      void* p = inner_call(ctx, size);
      update_ema(ctx, sm, *st, cost_now(ctx) - c0, size);
      return p;
    }
    return inner_call(ctx, size);
  }

  const gpu::Coalesced g = ctx.coalesce();
  const std::size_t slot =
      std::max(SizeClassMap::round16(size), std::size_t{16});
  const std::size_t prefix = ctx.scan_exclusive_add(slot);
  // Three suspension points, not four: the HIGHEST-ranked member already
  // knows the group total (its prefix plus its own slot), so it carves and
  // the reduce_add collective is elided entirely.
  const unsigned last = 31u - static_cast<unsigned>(std::countl_zero(g.mask));
  const bool is_carver = ctx.lane_id() == last;

  std::byte* base = nullptr;
  if (is_carver) {
    const std::size_t total = prefix + slot;
    bool probing = false;
    if (st != nullptr) {
      // Every served group is a dwell observation (probes are merely the
      // EMA updates among them): a site that entered on fluke evidence can
      // reach the exit dwell within a few probe rounds instead of needing
      // `dwell` whole probes. Exit cannot flap — re-entry demands fresh
      // arming evidence, not an EMA crossing.
      ++st->samples_since_switch;
      if (st->probe_countdown <= 1) {
        st->probe_countdown = spec_.probe_every;
        probing = true;
      } else {
        --st->probe_countdown;
      }
    }
    if (probing) {
      base = probe_sentinel();
    } else if (total <= payload_cap_) {
      base = carve(ctx, sm, total, g.size);
      if (base != nullptr) {
        ++sm.groups_combined;
        sm.lanes_served += g.size;
      }
    }
  }
  base = ctx.broadcast(g, base, last);

  if (base == probe_sentinel()) {
    // Probe round: the whole group serves per-lane, and the carver samples
    // the cost the lane path would see right now — the symmetric
    // counterpart of passthrough-mode sampling, so a site can discover that
    // the contention that sent it here has gone away.
    if (is_carver) {
      ++sm.probes;
      const std::uint64_t c0 = cost_now(ctx);
      void* p = inner_call(ctx, size);
      update_ema(ctx, sm, *st, cost_now(ctx) - c0, size);
      return p;
    }
    ++sm.passthrough_calls;
    return inner_call(ctx, size);
  }
  if (base == nullptr) {
    // Oversized group total or refill failure: per-lane requests are more
    // likely to be serviceable than one combined span, so degrade.
    ++sm.solo_fallbacks;
    return inner_call(ctx, size);
  }
  return base + prefix;
}

std::byte* WarpAggregator::carve(gpu::ThreadCtx& ctx, SmState& sm,
                                 std::size_t total, unsigned lanes) {
  SlabDesc* d = sm.slab;
  SlabDesc* superseded = nullptr;
  bool refilled = false;
  if (d == nullptr || d->cursor + total > d->capacity) {
    // Bulk refill: one inner allocation backs many groups. The inner call
    // may suspend this fiber, so everything below re-derives state; the
    // install-and-claim sequence after it has no suspension point, which
    // makes it atomic with respect to the other fibers of this SM —
    // concurrent refills each carve from their own freshly installed slab.
    auto* raw = static_cast<std::byte*>(inner_call(ctx, slab_alloc_bytes_));
    if (raw == nullptr) return nullptr;
    if (!in_arena(raw) || !in_arena(raw + slab_alloc_bytes_ - 1)) {
      // A relayed (host-heap) window is invisible to the masked-descriptor
      // lookup in free(); give it back and let the group degrade per-lane.
      inner_->free(ctx, raw);
      return nullptr;
    }
    const auto ubase =
        (reinterpret_cast<std::uintptr_t>(raw) + window_ - 1) &
        ~static_cast<std::uintptr_t>(window_ - 1);
    d = reinterpret_cast<SlabDesc*>(ubase);
    d->self = d;
    d->raw = raw;
    d->live_retired = 0;
    d->cursor = 0;
    d->capacity = static_cast<std::uint32_t>(payload_cap_);
    // Magic is published last (release) so a cross-SM free that races the
    // installation only matches a fully initialised descriptor.
    std::atomic_ref<std::uint64_t>(d->magic).store(kSlabMagic,
                                                   std::memory_order_release);
    superseded = sm.slab;
    sm.slab = d;
    ++sm.slab_refills;
    refilled = true;
    slabs_ever_.store(true, std::memory_order_release);
  }

  // Claim — no suspension point since the capacity check / installation.
  std::byte* p = reinterpret_cast<std::byte*>(d) + kDescBytes + d->cursor;
  d->cursor += static_cast<std::uint32_t>(total);
  if (!bulk_free_inner_) {
    ctx.atomic_add(&d->live_retired, static_cast<std::uint64_t>(lanes));
  }
  ++sm.slab_group_carves;

  // Anything that may suspend again runs only after the claim.
  if (superseded != nullptr) retire(ctx, superseded);
  if (refilled) {
    trace::mark(sink_, ctx, trace::EventKind::kAggSlabRefill,
                slab_alloc_bytes_,
                static_cast<std::uint64_t>(reinterpret_cast<std::byte*>(d) -
                                           arena_lo_));
  }
  return p;
}

void WarpAggregator::retire(gpu::ThreadCtx& ctx, SlabDesc* d) {
  if (d == nullptr) return;
  if (bulk_free_inner_) {
    // Reclaimed wholesale by warp_free_all; poison the descriptor now so a
    // stale magic can never shadow memory the inner manager hands out later.
    d->self = nullptr;
    std::atomic_ref<std::uint64_t>(d->magic).store(0,
                                                   std::memory_order_release);
    return;
  }
  const std::uint64_t old = ctx.atomic_or(&d->live_retired, kRetiredBit);
  if ((old & ~kRetiredBit) == 0) {
    std::byte* raw = d->raw;
    d->self = nullptr;
    std::atomic_ref<std::uint64_t>(d->magic).store(0,
                                                   std::memory_order_release);
    inner_->free(ctx, raw);
  }
}

void WarpAggregator::slab_free(gpu::ThreadCtx& ctx, SlabDesc* d) {
  if (bulk_free_inner_) return;  // reclaimed wholesale by warp_free_all
  const std::uint64_t old = ctx.atomic_sub(&d->live_retired, std::uint64_t{1});
  if (old == (kRetiredBit | 1)) {
    // Last lane out of a retired slab returns the whole backing block. A
    // racing free for another span of this slab cannot reach here: it holds
    // a live reference, so `old` still had its count.
    std::byte* raw = d->raw;
    d->self = nullptr;
    std::atomic_ref<std::uint64_t>(d->magic).store(0,
                                                   std::memory_order_release);
    inner_->free(ctx, raw);
  }
}

void WarpAggregator::free(gpu::ThreadCtx& ctx, void* ptr) {
  if (ptr == nullptr) return;
  if (slabs_ever_.load(std::memory_order_acquire) && in_arena(ptr)) {
    const auto u = reinterpret_cast<std::uintptr_t>(ptr);
    auto* win = reinterpret_cast<std::byte*>(
        u & ~static_cast<std::uintptr_t>(window_ - 1));
    // Slab payloads start kDescBytes past their window base, so a pointer AT
    // the base is never ours; the bounds guard keeps the probe inside the
    // arena for windows straddling its edges.
    if (win >= arena_lo_ && win + kDescBytes <= arena_hi_ &&
        reinterpret_cast<std::byte*>(u) != win) {
      auto* d = reinterpret_cast<SlabDesc*>(win);
      const auto magic = std::atomic_ref<std::uint64_t>(d->magic).load(
          std::memory_order_acquire);
      if (magic == kSlabMagic && d->self == d) {
        slab_free(ctx, d);
        return;
      }
    }
  }
  inner_->free(ctx, ptr);
}

void WarpAggregator::warp_free_all(gpu::ThreadCtx& ctx) {
  inner_->warp_free_all(ctx);
}

core::AggregationReport WarpAggregator::report() const {
  core::AggregationReport r;
  for (unsigned i = 0; i < num_sms_; ++i) {
    const SmState& sm = sm_[i];
    r.passthrough_calls += sm.passthrough_calls;
    r.groups_combined += sm.groups_combined;
    r.lanes_served += sm.lanes_served;
    r.slab_refills += sm.slab_refills;
    r.slab_group_carves += sm.slab_group_carves;
    r.solo_fallbacks += sm.solo_fallbacks;
    r.probes += sm.probes;
    r.switches_to_agg += sm.switches_to_agg;
    r.switches_to_pass += sm.switches_to_pass;
  }
  return r;
}

}  // namespace gms::alloc_core
