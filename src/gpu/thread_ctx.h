#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <source_location>
#include <span>
#include <type_traits>

#include "gpu/config.h"
#include "gpu/stats.h"

namespace gms::gpu {

class BlockExec;

/// Result of ThreadCtx::coalesce(): the group of lanes that reached the same
/// program point together — the simulator's equivalent of CUDA's
/// `cooperative_groups::coalesced_threads()` / `__activemask()`.
struct Coalesced {
  std::uint32_t mask = 0;  ///< warp-absolute lane bits of the members
  unsigned size = 0;       ///< popcount(mask)
  unsigned rank = 0;       ///< this lane's position among the members
  unsigned leader = 0;     ///< lowest member lane id

  [[nodiscard]] bool is_leader() const { return rank == 0; }
  [[nodiscard]] bool contains(unsigned lane) const {
    return (mask >> lane) & 1u;
  }
};

namespace detail {

enum class CollOp : std::uint8_t {
  kSync,
  kCoalesce,
  kBallot,
  kShfl,
  kReduceAdd,
  kReduceMin,
  kReduceMax,
  kReduceAnd,
  kReduceOr,
  kScanExclAdd,
  kAggAtomicAdd,  ///< warp-aggregated atomic add, resolved with one RMW
};

/// Per-lane descriptor of a pending warp collective. Whether the lane is
/// parked, and where, lives in its warp's scheduler masks, not here.
struct ParkSlot {
  CollOp op = CollOp::kSync;
  std::uint64_t site = 0;   ///< call-site token (groups divergent lanes)
  std::uint32_t mask = 0;   ///< explicit membership, 0 = open group
  std::uint64_t value = 0;  ///< input operand (bit-cast)
  bool pred = false;
  unsigned src_lane = 0;
  void* agg_addr = nullptr;  ///< target of kAggAtomicAdd
  bool agg_wide = false;     ///< 8-byte target (else 4-byte)

  std::uint64_t out_value = 0;
  std::uint32_t out_ballot = 0;
  Coalesced out_group;
};

inline std::uint64_t site_token(const std::source_location& loc) {
  auto file = reinterpret_cast<std::uint64_t>(loc.file_name());
  return (file << 22) ^ (static_cast<std::uint64_t>(loc.line()) << 10) ^
         loc.column();
}

template <typename T>
std::uint64_t to_bits(T v) {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
  std::uint64_t bits = 0;
  __builtin_memcpy(&bits, &v, sizeof(T));
  return bits;
}

template <typename T>
T from_bits(std::uint64_t bits) {
  T v{};
  __builtin_memcpy(&v, &bits, sizeof(T));
  return v;
}

}  // namespace detail

/// Per-lane handle passed into every kernel: thread geometry, warp
/// collectives, the block barrier, shared memory, and instrumented device
/// atomics. The collective member functions are synchronisation points — the
/// calling lane suspends until its coalesced group has assembled, mirroring
/// `*_sync` intrinsics.
class ThreadCtx {
 public:
  // ---- geometry -------------------------------------------------------
  [[nodiscard]] unsigned thread_rank() const { return thread_rank_; }
  [[nodiscard]] unsigned block_idx() const { return block_idx_; }
  [[nodiscard]] unsigned block_dim() const { return block_dim_; }
  [[nodiscard]] unsigned grid_dim() const { return grid_dim_; }
  [[nodiscard]] unsigned lane_id() const { return lane_; }
  [[nodiscard]] unsigned warp_in_block() const { return warp_in_block_; }
  [[nodiscard]] unsigned global_warp_id() const {
    return block_idx_ * (block_dim_ / kWarpSize) + warp_in_block_;
  }
  /// Index of the multiprocessor executing this lane (hash input for
  /// ScatterAlloc, arena selector for Reg-Eff-CM/CFM).
  [[nodiscard]] unsigned smid() const { return smid_; }
  [[nodiscard]] unsigned num_sms() const { return num_sms_; }
  [[nodiscard]] std::span<std::byte> shared() const { return shared_; }

  // ---- warp collectives (synchronisation points) ----------------------
  Coalesced coalesce(
      std::source_location loc = std::source_location::current());

  std::uint32_t ballot(
      bool pred, std::source_location loc = std::source_location::current());

  /// Value exchange: returns `v` held by warp lane `src_lane` if that lane is
  /// in the caller's group, else the caller's own value.
  template <typename T>
  T shfl(T v, unsigned src_lane,
         std::source_location loc = std::source_location::current()) {
    return detail::from_bits<T>(collective_value(
        detail::CollOp::kShfl, detail::to_bits(v), src_lane, 0, loc));
  }

  template <typename T>
  T reduce_add(T v,
               std::source_location loc = std::source_location::current()) {
    return detail::from_bits<T>(collective_value(
        detail::CollOp::kReduceAdd, detail::to_bits(v), 0, 0, loc));
  }
  template <typename T>
  T reduce_min(T v,
               std::source_location loc = std::source_location::current()) {
    return detail::from_bits<T>(collective_value(
        detail::CollOp::kReduceMin, detail::to_bits(v), 0, 0, loc));
  }
  template <typename T>
  T reduce_max(T v,
               std::source_location loc = std::source_location::current()) {
    return detail::from_bits<T>(collective_value(
        detail::CollOp::kReduceMax, detail::to_bits(v), 0, 0, loc));
  }
  template <typename T>
  T reduce_and(T v,
               std::source_location loc = std::source_location::current()) {
    static_assert(std::is_unsigned_v<T>);
    return detail::from_bits<T>(collective_value(
        detail::CollOp::kReduceAnd, detail::to_bits(v), 0, 0, loc));
  }
  template <typename T>
  T reduce_or(T v,
              std::source_location loc = std::source_location::current()) {
    static_assert(std::is_unsigned_v<T>);
    return detail::from_bits<T>(collective_value(
        detail::CollOp::kReduceOr, detail::to_bits(v), 0, 0, loc));
  }

  /// Exclusive prefix sum over the coalesced group, in lane order.
  template <typename T>
  T scan_exclusive_add(
      T v, std::source_location loc = std::source_location::current()) {
    return detail::from_bits<T>(collective_value(
        detail::CollOp::kScanExclAdd, detail::to_bits(v), 0, 0, loc));
  }

  /// Broadcast within an explicit group formed by a prior coalesce();
  /// releases only when every member of `g` arrives (like `shfl_sync(mask)`).
  template <typename T>
  T broadcast(const Coalesced& g, T v, unsigned src_lane,
              std::source_location loc = std::source_location::current()) {
    return detail::from_bits<T>(collective_value(
        detail::CollOp::kShfl, detail::to_bits(v), src_lane, g.mask, loc));
  }

  /// Warp-aggregated atomic add (the Halloc §2.7 optimisation): the group is
  /// formed, a single RMW of the group's total is issued, and every lane gets
  /// the old value plus its exclusive prefix — up to 32x fewer atomics.
  template <typename T>
  T aggregated_atomic_add(
      T* addr, T v,
      std::source_location loc = std::source_location::current()) {
    static_assert(sizeof(T) == 4 || sizeof(T) == 8);
    return detail::from_bits<T>(
        collective_agg_add(addr, detail::to_bits(v), sizeof(T) == 8, loc));
  }

  void sync_warp(std::source_location loc = std::source_location::current());
  void sync_group(const Coalesced& g,
                  std::source_location loc = std::source_location::current());

  /// Block-wide barrier (CUDA `__syncthreads()`); lanes that already returned
  /// from the kernel are treated as arrived.
  void sync_block();

  /// Polite spin: reschedules sibling lanes/warps and eventually yields the
  /// OS thread. Call inside every retry loop that waits on external progress.
  void backoff();

  // ---- watchdog diagnostics -------------------------------------------
  /// Lock-ownership notes: DeviceSpinLock reports acquire/release so that a
  /// launch cancelled by the watchdog can name the lanes still holding device
  /// locks (the usual culprit behind a stalled block).
  void note_lock_acquired(const void* addr) {
    if (held_locks_ < kMaxHeldLocks) held_lock_addrs_[held_locks_] = addr;
    ++held_locks_;
  }
  void note_lock_released(const void* /*addr*/) {
    if (held_locks_ > 0) --held_locks_;
  }
  [[nodiscard]] unsigned held_locks() const { return held_locks_; }
  [[nodiscard]] const void* held_lock_addr(unsigned i) const {
    return i < kMaxHeldLocks ? held_lock_addrs_[i] : nullptr;
  }

  // ---- instrumented device atomics -------------------------------------
  template <typename T>
  T atomic_load(const T* addr) {
    ++stats_->atomic_load;
    return std::atomic_ref<T>(*const_cast<T*>(addr)).load(
        std::memory_order_acquire);
  }
  template <typename T>
  void atomic_store(T* addr, T v) {
    ++stats_->atomic_store;
    std::atomic_ref<T>(*addr).store(v, std::memory_order_release);
  }
  template <typename T>
  T atomic_add(T* addr, T v) {
    ++stats_->atomic_rmw;
    return std::atomic_ref<T>(*addr).fetch_add(v, std::memory_order_acq_rel);
  }
  template <typename T>
  T atomic_sub(T* addr, T v) {
    ++stats_->atomic_rmw;
    return std::atomic_ref<T>(*addr).fetch_sub(v, std::memory_order_acq_rel);
  }
  template <typename T>
  T atomic_or(T* addr, T v) {
    ++stats_->atomic_rmw;
    return std::atomic_ref<T>(*addr).fetch_or(v, std::memory_order_acq_rel);
  }
  template <typename T>
  T atomic_and(T* addr, T v) {
    ++stats_->atomic_rmw;
    return std::atomic_ref<T>(*addr).fetch_and(v, std::memory_order_acq_rel);
  }
  template <typename T>
  T atomic_exch(T* addr, T v) {
    ++stats_->atomic_rmw;
    return std::atomic_ref<T>(*addr).exchange(v, std::memory_order_acq_rel);
  }
  /// CUDA-style CAS: returns the value observed before the exchange attempt.
  template <typename T>
  T atomic_cas(T* addr, T expected, T desired) {
    ++stats_->atomic_cas;
    T seen = expected;
    if (!std::atomic_ref<T>(*addr).compare_exchange_strong(
            seen, desired, std::memory_order_acq_rel)) {
      ++stats_->atomic_cas_failed;
    }
    return seen;
  }

  [[nodiscard]] StatsCounters& stats() { return *stats_; }

 private:
  friend class BlockExec;

  std::uint64_t collective_value(detail::CollOp op, std::uint64_t value,
                                 unsigned src_lane, std::uint32_t mask,
                                 const std::source_location& loc);
  std::uint64_t collective_agg_add(void* addr, std::uint64_t value, bool wide,
                                   const std::source_location& loc);

  static constexpr unsigned kMaxHeldLocks = 4;

  BlockExec* block_ = nullptr;
  StatsCounters* stats_ = nullptr;
  std::span<std::byte> shared_;
  const void* held_lock_addrs_[kMaxHeldLocks] = {};
  unsigned held_locks_ = 0;
  unsigned thread_rank_ = 0;
  unsigned block_idx_ = 0;
  unsigned block_dim_ = 0;
  unsigned grid_dim_ = 0;
  unsigned lane_ = 0;
  unsigned warp_in_block_ = 0;
  unsigned smid_ = 0;
  unsigned num_sms_ = 1;
};

}  // namespace gms::gpu
