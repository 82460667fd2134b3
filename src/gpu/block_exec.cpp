#include "gpu/block_exec.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <thread>

namespace gms::gpu {

using detail::CollOp;
using detail::ParkSlot;

namespace {
/// Thrown inside a lane fiber to unwind its stack when the launch is
/// cancelled; swallowed by lane_entry so it never masks a real kernel error.
struct CancelLane {};
}  // namespace

BlockExec::BlockExec(const GpuConfig& cfg, unsigned smid, StatsCounters& stats,
                     const std::atomic<bool>* cancel,
                     std::atomic<std::uint64_t>* heartbeat,
                     const std::atomic<LaunchObserver*>* observer)
    : cfg_(cfg), smid_(smid), stats_(stats), cancel_(cancel),
      heartbeat_(heartbeat), observer_(observer),
      pool_(cfg.lane_stack_bytes) {}

BlockExec::~BlockExec() = default;

void BlockExec::prepare(unsigned grid_dim, unsigned block_dim,
                        std::size_t shared_bytes, KernelRef kernel) {
  if (block_dim == 0 || block_dim > 1024) {
    throw std::invalid_argument{"block_dim must be in [1, 1024]"};
  }
  kernel_ = kernel;
  grid_dim_ = grid_dim;
  block_dim_ = block_dim;
  warps_ = (block_dim + kWarpSize - 1) / kWarpSize;
  if (lanes_.size() < block_dim) lanes_.resize(block_dim);
  if (warp_state_.size() < warps_) warp_state_.resize(warps_);
  // Keep the largest buffer ever requested; each block only re-zeroes the
  // bytes this launch actually asked for (shared_bytes_), not the capacity.
  shared_bytes_ = shared_bytes;
  if (shared_mem_.size() < shared_bytes) shared_mem_.resize(shared_bytes);
  // Everything a lane's context holds that no block changes is written once
  // per launch; run_block writes only the per-block fields.
  const std::span<std::byte> shared{shared_mem_.data(), shared_bytes_};
  for (unsigned i = 0; i < block_dim; ++i) {
    ThreadCtx& ctx = lanes_[i].ctx;
    ctx.block_ = this;
    ctx.stats_ = &stats_;
    ctx.shared_ = shared;
    ctx.block_dim_ = block_dim;
    ctx.grid_dim_ = grid_dim;
    ctx.lane_ = i % kWarpSize;
    ctx.warp_in_block_ = i / kWarpSize;
    ctx.smid_ = smid_;
    ctx.num_sms_ = cfg_.num_sms;
  }
  for (unsigned w = 0; w < warps_; ++w) {
    const unsigned n = std::min(kWarpSize, block_dim - w * kWarpSize);
    warp_state_[w].valid = n == kWarpSize ? ~0u : (1u << n) - 1u;
  }
}

void BlockExec::lane_entry(void* lane_erased) {
  auto* lane = static_cast<Lane*>(lane_erased);
  BlockExec* self = lane->ctx.block_;
  for (;;) {
    try {
      self->kernel_.invoke(self->kernel_.object, lane->ctx);
    } catch (const CancelLane&) {
      // Expected during watchdog cancellation: the lane unwound cleanly.
    } catch (...) {
      // First failure wins; lanes all run on this SM's OS thread, so no lock.
      if (!self->kernel_error_) self->kernel_error_ = std::current_exception();
    }
    Lane* next = self->next_chain_lane();
    if (next == nullptr) return;  // run_warp retires the lane
    // The next lane of the pass starts on this stack, the one the pool's
    // LIFO would have handed it: the chain saves its fiber reset and two
    // stack swaps, and changes nothing else.
    ++self->stats_.lane_switches;
    next->fiber = std::move(lane->fiber);
    self->retire_lane(*lane);
    self->active_ = next;
    lane = next;
  }
}

BlockExec::Lane* BlockExec::next_chain_lane() {
  if (cancelling_ || pass_rest_ == 0) return nullptr;
  Lane& next =
      lanes_[pass_base_ + static_cast<unsigned>(std::countr_zero(pass_rest_))];
  if (next.fiber) return nullptr;  // suspended: resumes on its own stack
  pass_rest_ &= pass_rest_ - 1;
  return &next;
}

void BlockExec::ensure_fiber(Lane& lane) {
  if (lane.fiber) return;
  bool created = false;
  lane.fiber = pool_.acquire(created);
  if (created) ++stats_.fibers_created;
  lane.fiber->reset(&lane_entry, &lane);
}

void BlockExec::retire_lane(Lane& lane) {
  ++done_lanes_;
  WarpState& ws = warp_of(lane);
  const std::uint32_t bit = 1u << lane.ctx.lane_;
  ws.ready &= ~bit;
  ws.parked &= ~bit;
  ws.barrier &= ~bit;
  if (lane.fiber) pool_.release(std::move(lane.fiber));
}

bool BlockExec::masks_consistent() const {
  for (unsigned w = 0; w < warps_; ++w) {
    const WarpState& ws = warp_state_[w];
    if ((ws.ready & ~ws.valid) != 0 || (ws.parked & ~ws.valid) != 0 ||
        (ws.barrier & ~ws.parked) != 0 || (ws.ready & ws.parked) != 0) {
      return false;
    }
  }
  return true;
}

void BlockExec::run_block(unsigned block_idx) {
  done_lanes_ = 0;
  current_block_ = block_idx;
  kernel_error_ = nullptr;
  // Each block starts with pristine shared memory, as on hardware — but only
  // the bytes this launch requested are touched, not the retained capacity.
  if (shared_bytes_ != 0) {
    std::fill_n(shared_mem_.begin(),
                static_cast<std::ptrdiff_t>(shared_bytes_), std::byte{0});
  }
  // The lane's collective slot is not reset: every collective entry writes
  // the slot fields its resolution reads.
  const unsigned first_rank = block_idx * block_dim_;
  for (unsigned i = 0; i < block_dim_; ++i) {
    Lane& lane = lanes_[i];
    lane.spin_streak = 0;
    lane.ctx.thread_rank_ = first_rank + i;
    lane.ctx.block_idx_ = block_idx;
    lane.ctx.held_locks_ = 0;
  }
  for (unsigned w = 0; w < warps_; ++w) {
    WarpState& ws = warp_state_[w];
    ws.ready = ws.valid;
    ws.parked = 0;
    ws.barrier = 0;
  }

  unsigned long long stall_passes = 0;
  try {
    while (done_lanes_ < block_dim_) {
      if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
        cancel_block(block_idx);
      }
      bool progress = false;
      for (unsigned w = 0; w < warps_; ++w) progress |= run_warp(w);
      progress |= try_release_barrier();
      if (progress) {
        stall_passes = 0;
        if (heartbeat_ != nullptr) {
          heartbeat_->fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      ++stall_passes;
      if (stall_passes % cfg_.stall_passes_before_os_yield == 0) {
        ++stats_.os_yields;
        std::this_thread::yield();
      }
      if (stall_passes > cfg_.deadlock_pass_limit) report_deadlock(block_idx);
    }
  } catch (...) {
    // A deadlock diagnosis (e.g. "masked collective waits on an exited
    // lane") can surface mid-pass with lanes still suspended on their
    // stacks; unwind them so the executor stays reusable after the throw.
    if (done_lanes_ < block_dim_) unwind_lanes();
    throw;
  }
  if (kernel_error_) std::rethrow_exception(kernel_error_);
}

bool BlockExec::run_warp(unsigned w) {
  WarpState& ws = warp_state_[w];
  // Fully done, or everyone already waits at the block barrier: O(1) skip.
  if (!ws.runnable()) return false;
  const unsigned base = w * kWarpSize;
  bool progress = false;
  std::uint32_t exhausted = 0;  ///< ready lanes that burned their quantum
  for (std::uint32_t m = ws.ready; m != 0; m &= m - 1) {
    lanes_[base + static_cast<unsigned>(std::countr_zero(m))].spin_streak = 0;
  }

  for (;;) {
    const std::uint32_t pass = ws.ready & ~exhausted;
    if (pass == 0) {
      // Convergence shortcut: no lane can still join a group (spinners kept
      // their chance through the quantum above), so whoever is parked at a
      // collective resolves right now.
      if (ws.collective() != 0 && resolve_collectives(w)) {
        // Released lanes restart with spin_streak 0; lanes in `exhausted`
        // were never resumed since, so their bits remain valid.
        progress = true;
        continue;
      }
      return progress;
    }
    // One scheduling pass over the snapshot: only set bits are visited, and
    // other lanes' bits cannot change under us (an activation only moves the
    // lanes it runs). A resume activates the first lane still to visit; a
    // lane that returns chains into the next unstarted one (lane_entry),
    // so the activation may end on a later lane of the pass.
    pass_base_ = base;
    pass_rest_ = pass;
    while (pass_rest_ != 0) {
      Lane& first = lanes_[base + static_cast<unsigned>(
                                      std::countr_zero(pass_rest_))];
      pass_rest_ &= pass_rest_ - 1;
      ++stats_.lane_switches;
      ensure_fiber(first);
      active_ = &first;
      const bool finished = first.fiber->resume();
      Lane& lane = *active_;  // the lane that ended the activation
      const unsigned i = lane.ctx.lane_;
      progress |= &lane != &first;  // the chain retired the lanes before it
      if (finished) {
        retire_lane(lane);
        progress = true;
      } else if ((ws.parked >> i) & 1u) {
        progress = true;
      } else if (lane.spin_streak >= kSpinQuantum) {
        exhausted |= 1u << i;
      }
    }
  }
}

bool BlockExec::resolve_collectives(unsigned w) {
  WarpState& ws = warp_state_[w];
  const unsigned base = w * kWarpSize;
  bool any = false;

  // Lanes still parked at a collective and not yet grouped this call. Every
  // group is carved out of this mask by intersection, so no lane is
  // visited once it has been grouped.
  std::uint32_t pend = ws.collective();
  while (pend != 0) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(pend));
    Lane& lane = lanes_[base + i];
    if (lane.park.mask != 0) {
      // Explicit-mask op: complete only when every member sits parked at the
      // same site with the same mask. Membership is checked member-by-member
      // in lane order, which fixes the pass at which the done-lane deadlock
      // diagnosis fires. The masks are read live: a group released earlier
      // in this call has already turned its lanes ready.
      bool complete = true;
      for (std::uint32_t m = lane.park.mask & ws.valid; m != 0; m &= m - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(m));
        const Lane& member = lanes_[base + j];
        if ((ws.done() >> j) & 1u) {
          throw std::runtime_error{
              "SIMT deadlock: masked collective waits on an exited lane"};
        }
        if (((ws.collective() >> j) & 1u) == 0 ||
            member.park.site != lane.park.site ||
            member.park.mask != lane.park.mask) {
          complete = false;
          break;
        }
      }
      if (complete) {
        resolve_group(w, lane.park.mask);
        pend &= ~lane.park.mask;
        any = true;
      } else {
        pend &= ~(1u << i);  // revisit once the missing members arrive
      }
    } else {
      // Open group: every pending lane at the same (site, op). Intersecting
      // against `pend` visits only parked-collective lanes.
      std::uint32_t members = 0;
      for (std::uint32_t m = pend; m != 0; m &= m - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(m));
        const Lane& cand = lanes_[base + j];
        if (cand.park.mask == 0 && cand.park.site == lane.park.site &&
            cand.park.op == lane.park.op) {
          members |= 1u << j;
        }
      }
      resolve_group(w, members);
      pend &= ~members;
      any = true;
    }
  }
  return any;
}

void BlockExec::resolve_group(unsigned w, std::uint32_t member_mask) {
  assert(member_mask != 0);
  const unsigned base = w * kWarpSize;
  const unsigned leader = static_cast<unsigned>(std::countr_zero(member_mask));
  const unsigned size = static_cast<unsigned>(std::popcount(member_mask));
  Lane& first = lanes_[base + leader];
  const CollOp op = first.park.op;
  ++stats_.collectives;

  if (op == CollOp::kAggAtomicAdd) {
    // Warp-aggregated atomics sub-group by target address (hardware does
    // this with __match_any): lanes adding to different words must not be
    // folded into one RMW on the leader's word.
    std::uint32_t remaining = member_mask;
    while (remaining != 0) {
      const unsigned lead =
          static_cast<unsigned>(std::countr_zero(remaining));
      void* addr = lanes_[base + lead].park.agg_addr;
      std::uint32_t sub = 0;
      for (unsigned j = lead; j < kWarpSize; ++j) {
        if (((remaining >> j) & 1u) &&
            lanes_[base + j].park.agg_addr == addr) {
          sub |= 1u << j;
        }
      }
      remaining &= ~sub;
      resolve_agg_add_subgroup(w, sub, member_mask);
    }
    return;
  }

  // Pre-compute group-wide values.
  std::uint64_t reduced = 0;
  std::uint32_t ballot_bits = 0;
  switch (op) {
    case CollOp::kReduceAdd:
      for (unsigned j = 0; j < kWarpSize; ++j)
        if ((member_mask >> j) & 1u) reduced += lanes_[base + j].park.value;
      break;
    case CollOp::kReduceMin:
      reduced = ~std::uint64_t{0};
      for (unsigned j = 0; j < kWarpSize; ++j)
        if ((member_mask >> j) & 1u)
          reduced = std::min(reduced, lanes_[base + j].park.value);
      break;
    case CollOp::kReduceMax:
      for (unsigned j = 0; j < kWarpSize; ++j)
        if ((member_mask >> j) & 1u)
          reduced = std::max(reduced, lanes_[base + j].park.value);
      break;
    case CollOp::kReduceAnd:
      reduced = ~std::uint64_t{0};
      for (unsigned j = 0; j < kWarpSize; ++j)
        if ((member_mask >> j) & 1u) reduced &= lanes_[base + j].park.value;
      break;
    case CollOp::kReduceOr:
      for (unsigned j = 0; j < kWarpSize; ++j)
        if ((member_mask >> j) & 1u) reduced |= lanes_[base + j].park.value;
      break;
    case CollOp::kBallot:
      for (unsigned j = 0; j < kWarpSize; ++j)
        if (((member_mask >> j) & 1u) && lanes_[base + j].park.pred)
          ballot_bits |= 1u << j;
      break;
    default:
      break;
  }

  std::uint64_t running = 0;  // exclusive prefix for the scan
  for (unsigned j = 0; j < kWarpSize; ++j) {
    if (!((member_mask >> j) & 1u)) continue;
    Lane& lane = lanes_[base + j];
    ParkSlot& slot = lane.park;
    slot.out_group.mask = member_mask;
    slot.out_group.size = size;
    slot.out_group.leader = leader;
    slot.out_group.rank = static_cast<unsigned>(
        std::popcount(member_mask & ((1u << j) - 1u)));
    switch (op) {
      case CollOp::kSync:
      case CollOp::kCoalesce:
        break;
      case CollOp::kBallot:
        slot.out_ballot = ballot_bits;
        break;
      case CollOp::kShfl: {
        const unsigned src = slot.src_lane;
        slot.out_value = (src < kWarpSize && ((member_mask >> src) & 1u))
                             ? lanes_[base + src].park.value
                             : slot.value;
        break;
      }
      case CollOp::kReduceAdd:
      case CollOp::kReduceMin:
      case CollOp::kReduceMax:
      case CollOp::kReduceAnd:
      case CollOp::kReduceOr:
        slot.out_value = reduced;
        break;
      case CollOp::kScanExclAdd:
        slot.out_value = running;
        running += slot.value;
        break;
      case CollOp::kAggAtomicAdd:
        break;  // handled by resolve_agg_add_subgroup above
    }
    lane.spin_streak = 0;
  }
  WarpState& ws = warp_state_[w];
  const std::uint32_t released = member_mask & ws.valid;
  ws.parked &= ~released;
  ws.ready |= released;
}

void BlockExec::resolve_agg_add_subgroup(unsigned w, std::uint32_t sub_mask,
                                         std::uint32_t group_mask) {
  const unsigned base = w * kWarpSize;
  const unsigned lead = static_cast<unsigned>(std::countr_zero(sub_mask));
  Lane& leader = lanes_[base + lead];

  std::uint64_t total = 0;
  for (unsigned j = 0; j < kWarpSize; ++j) {
    if ((sub_mask >> j) & 1u) total += lanes_[base + j].park.value;
  }
  // The single RMW this sub-group's aggregation issues on hardware.
  ++stats_.atomic_rmw;
  std::uint64_t agg_base = 0;
  if (leader.park.agg_wide) {
    auto* p = static_cast<std::uint64_t*>(leader.park.agg_addr);
    agg_base = std::atomic_ref<std::uint64_t>(*p).fetch_add(
        total, std::memory_order_acq_rel);
  } else {
    auto* p = static_cast<std::uint32_t*>(leader.park.agg_addr);
    agg_base = std::atomic_ref<std::uint32_t>(*p).fetch_add(
        static_cast<std::uint32_t>(total), std::memory_order_acq_rel);
  }

  std::uint64_t running = 0;
  for (unsigned j = 0; j < kWarpSize; ++j) {
    if (!((sub_mask >> j) & 1u)) continue;
    Lane& lane = lanes_[base + j];
    ParkSlot& slot = lane.park;
    slot.out_group.mask = group_mask;
    slot.out_group.size = static_cast<unsigned>(std::popcount(group_mask));
    slot.out_group.leader =
        static_cast<unsigned>(std::countr_zero(group_mask));
    slot.out_group.rank =
        static_cast<unsigned>(std::popcount(group_mask & ((1u << j) - 1u)));
    slot.out_value = agg_base + running;
    running += slot.value;
    lane.spin_streak = 0;
  }
  WarpState& ws = warp_state_[w];
  const std::uint32_t released = sub_mask & ws.valid;
  ws.parked &= ~released;
  ws.ready |= released;
}

bool BlockExec::try_release_barrier() {
  // O(warps): a warp blocks the barrier iff it still has a ready lane or a
  // lane parked at a collective.
  bool saw_barrier = false;
  for (unsigned w = 0; w < warps_; ++w) {
    const WarpState& ws = warp_state_[w];
    if ((ws.ready | ws.collective()) != 0) return false;
    saw_barrier |= ws.barrier != 0;
  }
  if (!saw_barrier) return false;
  ++stats_.block_barriers;
  if (observer_ != nullptr) {
    if (LaunchObserver* obs = observer_->load(std::memory_order_relaxed)) {
      obs->on_barrier_release(smid_, current_block_);
    }
  }
  for (unsigned w = 0; w < warps_; ++w) {
    WarpState& ws = warp_state_[w];
    for (std::uint32_t m = ws.parked; m != 0; m &= m - 1) {
      lanes_[w * kWarpSize + static_cast<unsigned>(std::countr_zero(m))]
          .spin_streak = 0;
    }
    ws.ready |= ws.parked;  // every parked lane sat at the barrier
    ws.parked = 0;
    ws.barrier = 0;
  }
  return true;
}

void BlockExec::report_deadlock(unsigned block_idx) {
  if (kernel_error_) std::rethrow_exception(kernel_error_);
  auto diag = diagnose(block_idx);
  unwind_lanes();  // leave the executor reusable even after the throw
  throw std::runtime_error{"SIMT deadlock detected in block " +
                           std::to_string(block_idx) +
                           ": no lane made progress within the pass limit (" +
                           diag.to_string() + ")"};
}

TimeoutDiagnosis BlockExec::diagnose(unsigned block_idx) const {
  TimeoutDiagnosis diag;
  diag.smid = smid_;
  diag.block_idx = block_idx;
  for (unsigned i = 0; i < block_dim_; ++i) {
    const Lane& lane = lanes_[i];
    const WarpState& ws = warp_state_[i / kWarpSize];
    const std::uint32_t bit = 1u << (i % kWarpSize);
    if ((ws.done() & bit) != 0) {
      ++diag.lanes_done;
      continue;  // an exited lane holds no lock
    }
    if ((ws.parked & bit) != 0) {
      ++diag.lanes_parked;
    } else if (lane.spin_streak > 0) {
      ++diag.lanes_spinning;
      if (diag.first_stuck_rank == ~0u) {
        diag.first_stuck_rank = lane.ctx.thread_rank();
      }
    } else {
      ++diag.lanes_ready;
    }
    for (unsigned l = 0; l < lane.ctx.held_locks(); ++l) {
      diag.lock_holders.push_back(
          {lane.ctx.thread_rank(), lane.ctx.held_lock_addr(l)});
    }
  }
  return diag;
}

void BlockExec::unwind_lanes() {
  cancelling_ = true;
  // A cooperative lane unwinds in a single resume: it throws CancelLane at
  // its next wait point and its fiber finishes. The budget is proportional
  // to the remaining live work (with slack for destructors that hit one more
  // wait point), shared across the block: a lane that keeps swallowing the
  // cancel exception and re-entering a wait loop drains it and is abandoned,
  // instead of costing a fixed 1024 wasted switches per lane.
  const unsigned live = block_dim_ - done_lanes_;
  unsigned long long budget = 16ull + 4ull * live;
  for (unsigned i = 0; i < block_dim_; ++i) {
    Lane& lane = lanes_[i];
    const WarpState& ws = warp_state_[i / kWarpSize];
    const std::uint32_t bit = 1u << (i % kWarpSize);
    while ((ws.done() & bit) == 0 && budget > 0) {
      --budget;
      // A lane that never got its first time slice still owns no stack;
      // resuming it runs the kernel body, which cancels at its first yield.
      ensure_fiber(lane);
      if (lane.fiber->resume()) retire_lane(lane);
    }
    if ((ws.done() & bit) == 0) {
      if (lane.fiber) lane.fiber->abandon();
      retire_lane(lane);
    }
  }
  cancelling_ = false;
  assert(done_lanes_ == block_dim_);
  assert(masks_consistent());
}

void BlockExec::cancel_block(unsigned block_idx) {
  auto diag = diagnose(block_idx);
  unwind_lanes();
  // A genuine kernel failure that raced the cancellation outranks it.
  if (kernel_error_) std::rethrow_exception(kernel_error_);
  throw LaunchTimeout(std::move(diag));
}

void BlockExec::maybe_cancel_lane() const {
  // Never throw while a lane is already unwinding: a destructor that parks
  // or backs off during the cancel unwind must not escalate to terminate().
  if (cancelling_ && std::uncaught_exceptions() == 0) throw CancelLane{};
}

void BlockExec::park_collective(Lane& lane) {
  maybe_cancel_lane();
  WarpState& ws = warp_of(lane);
  const std::uint32_t bit = 1u << lane.ctx.lane_;
  ws.ready &= ~bit;
  ws.parked |= bit;
  Fiber::yield();
  maybe_cancel_lane();  // resumed by the cancel unwind, not a group release
}

void BlockExec::park_barrier(Lane& lane) {
  maybe_cancel_lane();
  WarpState& ws = warp_of(lane);
  const std::uint32_t bit = 1u << lane.ctx.lane_;
  ws.ready &= ~bit;
  ws.parked |= bit;
  ws.barrier |= bit;
  Fiber::yield();
  maybe_cancel_lane();
}

void BlockExec::lane_backoff(Lane& lane) {
  maybe_cancel_lane();
  ++lane.spin_streak;
  ++stats_.backoffs;
  Fiber::yield();
  maybe_cancel_lane();
}

// ---- ThreadCtx forwarding (needs Lane's definition) -----------------------

std::uint64_t ThreadCtx::collective_value(CollOp op, std::uint64_t value,
                                          unsigned src_lane,
                                          std::uint32_t mask,
                                          const std::source_location& loc) {
  auto& lane = block_->lanes_[warp_in_block_ * kWarpSize + lane_];
  ParkSlot& slot = lane.park;
  slot.op = op;
  slot.site = detail::site_token(loc);
  slot.mask = mask;
  slot.value = value;
  slot.src_lane = src_lane;
  slot.pred = false;
  block_->park_collective(lane);
  return slot.out_value;
}

std::uint64_t ThreadCtx::collective_agg_add(void* addr, std::uint64_t value,
                                            bool wide,
                                            const std::source_location& loc) {
  auto& lane = block_->lanes_[warp_in_block_ * kWarpSize + lane_];
  ParkSlot& slot = lane.park;
  slot.op = CollOp::kAggAtomicAdd;
  slot.site = detail::site_token(loc);
  slot.mask = 0;
  slot.value = value;
  slot.agg_addr = addr;
  slot.agg_wide = wide;
  block_->park_collective(lane);
  return slot.out_value;
}

Coalesced ThreadCtx::coalesce(std::source_location loc) {
  auto& lane = block_->lanes_[warp_in_block_ * kWarpSize + lane_];
  ParkSlot& slot = lane.park;
  slot.op = CollOp::kCoalesce;
  slot.site = detail::site_token(loc);
  slot.mask = 0;
  block_->park_collective(lane);
  return slot.out_group;
}

std::uint32_t ThreadCtx::ballot(bool pred, std::source_location loc) {
  auto& lane = block_->lanes_[warp_in_block_ * kWarpSize + lane_];
  ParkSlot& slot = lane.park;
  slot.op = CollOp::kBallot;
  slot.site = detail::site_token(loc);
  slot.mask = 0;
  slot.pred = pred;
  block_->park_collective(lane);
  return slot.out_ballot;
}

void ThreadCtx::sync_warp(std::source_location loc) {
  auto& lane = block_->lanes_[warp_in_block_ * kWarpSize + lane_];
  ParkSlot& slot = lane.park;
  slot.op = CollOp::kSync;
  slot.site = detail::site_token(loc);
  slot.mask = 0;
  block_->park_collective(lane);
}

void ThreadCtx::sync_group(const Coalesced& g, std::source_location loc) {
  auto& lane = block_->lanes_[warp_in_block_ * kWarpSize + lane_];
  ParkSlot& slot = lane.park;
  slot.op = CollOp::kSync;
  slot.site = detail::site_token(loc);
  slot.mask = g.mask;
  block_->park_collective(lane);
}

void ThreadCtx::sync_block() {
  auto& lane = block_->lanes_[warp_in_block_ * kWarpSize + lane_];
  block_->park_barrier(lane);
}

void ThreadCtx::backoff() {
  auto& lane = block_->lanes_[warp_in_block_ * kWarpSize + lane_];
  block_->lane_backoff(lane);
}

}  // namespace gms::gpu
