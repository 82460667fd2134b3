#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace gms::core {

template <typename C>
class ConfigSchema;

/// Knobs of a "resilient" stack stage ("resilient{retries=2,reserve=10}"):
/// the policy of the "+R" failure-recovery layer
/// (alloc_core::ResilientManager, which marks each escalation step as a
/// trace::EventKind 24-29 marker). Every knob is deterministic — retry
/// backoff is a seeded hash of (lane, attempt), the circuit breaker counts
/// calls rather than wall clock — so a recorded trace replays to the same
/// escalation decisions.
struct ResilienceSpec {
  /// Extra in-kernel malloc attempts after the first failure, each preceded
  /// by a deterministic per-lane backoff. 0 disables retry (straight to the
  /// reserve pool).
  unsigned retries = 3;
  /// Backoff growth base: attempt k spins `base << (k-1)` rounds plus a
  /// seeded per-lane jitter in [0, base) — the in-kernel analogue of the
  /// survey runner's exponential-plus-jitter schedule.
  std::uint32_t backoff_base = 4;
  std::uint64_t seed = 0x5EED;
  /// Percent of the manager's heap carved off the tail as the reserve pool
  /// (clamped to at least 64 KiB).
  unsigned reserve_percent = 8;
  /// Consecutive inner-manager failures at one site (size class) before the
  /// site's circuit breaker trips and parks it on the fallback path.
  unsigned breaker_threshold = 16;
  /// While a breaker is open, every `breaker_decay`-th call at the site
  /// probes the inner manager again (half-open); a successful probe closes
  /// the breaker. Count-based, never wall clock, so replays agree.
  std::uint64_t breaker_decay = 256;

  /// Keys retries|backoff|seed|reserve|breaker|decay.
  static const ConfigSchema<ResilienceSpec>& config_schema();
};

/// The "+R" per-site breaker state machine, extracted as a host-callable,
/// thread-safe primitive so the service layer's per-device health tracking
/// (DESIGN.md §13) runs the exact semantics the in-kernel Site breakers use:
/// `threshold` CONSECUTIVE failures trip the breaker open; while open, every
/// `decay`-th poll offers exactly one half-open probe slot; a recorded
/// success closes it again. All transitions are count-based (never wall
/// clock), so concurrent feeders — SM lanes there, host verdict threads
/// here — reach the same trip/reset sequence as a serial replay would.
///
/// Concurrency contract: record_failure returns true for exactly one caller
/// per closed->open transition, record_success for exactly one caller per
/// open->closed transition, and probe_ticket() hands out exactly one ticket
/// per `decay` polls — the properties test_resilience drives from racing
/// host threads.
class CircuitBreaker {
 public:
  CircuitBreaker(unsigned threshold, std::uint64_t decay)
      : threshold_(threshold == 0 ? 1 : threshold),
        decay_(decay == 0 ? 1 : decay) {}

  /// Records one failed probe/call. Returns true iff THIS call tripped the
  /// breaker (consecutive count crossed the threshold while closed).
  bool record_failure() {
    const auto c = consecutive_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (c >= threshold_ && open_.exchange(1, std::memory_order_acq_rel) == 0) {
      trips_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Records one successful call. Returns true iff THIS call reset an open
  /// breaker (the half-open probe that won).
  bool record_success() {
    consecutive_.store(0, std::memory_order_release);
    if (open_.exchange(0, std::memory_order_acq_rel) == 1) {
      resets_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// While open, polls take a ticket; every `decay`-th ticket elects its
  /// holder to run a half-open probe (true). Closed breakers never elect.
  bool probe_ticket() {
    if (!open()) return false;
    const auto n = open_polls_.fetch_add(1, std::memory_order_acq_rel) + 1;
    return n % decay_ == 0;
  }

  [[nodiscard]] bool open() const {
    return open_.load(std::memory_order_acquire) != 0;
  }
  [[nodiscard]] std::uint32_t consecutive_failures() const {
    return consecutive_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t trips() const {
    return trips_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t resets() const {
    return resets_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] unsigned threshold() const { return threshold_; }
  [[nodiscard]] std::uint64_t decay() const { return decay_; }

 private:
  unsigned threshold_;
  std::uint64_t decay_;
  std::atomic<std::uint32_t> consecutive_{0};
  std::atomic<std::uint32_t> open_{0};
  std::atomic<std::uint64_t> open_polls_{0};
  std::atomic<std::uint64_t> trips_{0};
  std::atomic<std::uint64_t> resets_{0};
};

/// Host-side snapshot of the "+R" layer's bookkeeping — what
/// bench_resilience prints per manager and what the acceptance criterion
/// ("0 unrecovered failures") is asserted against. Its fields are listed
/// once, in schema(): to_string() and the bench JSON both come from there.
struct ResilienceReport {
  std::uint64_t inner_failures = 0;   ///< first-attempt nullptr returns
  std::uint64_t retries = 0;          ///< retry attempts issued
  std::uint64_t retry_successes = 0;  ///< requests rescued by retry alone
  std::uint64_t fallback_allocs = 0;  ///< requests served by the reserve pool
  std::uint64_t fallback_frees = 0;   ///< reserve blocks returned
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_resets = 0;
  std::uint64_t breaker_served = 0;   ///< calls short-circuited while open
  std::uint64_t unrecovered = 0;      ///< nullptr escaped to the caller
  std::uint64_t reserve_exhausted = 0;   ///< reserve had no block to give
  std::uint64_t reserve_double_frees = 0;///< detected + absorbed, never UB
  std::uint64_t reserve_invalid_frees = 0;///< in-range but not a block start
  std::uint64_t reserve_used_bytes = 0;  ///< bump high-water mark
  std::uint64_t reserve_capacity = 0;

  bool operator==(const ResilienceReport&) const = default;
  static const ConfigSchema<ResilienceReport>& schema();
  /// "[resilience] {inner_failures=N,...}", every field in schema order.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace gms::core
