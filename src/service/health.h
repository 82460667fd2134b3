#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/resilience.h"
#include "core/survey_runner.h"

namespace gms::service {

/// Health state of one device shard, derived from its breaker plus the
/// drain/revive lifecycle. A shard is *routable* only while kHealthy.
enum class ShardHealth : std::uint8_t {
  kHealthy,   ///< breaker closed; accepts tenant batches
  kDraining,  ///< breaker tripped; tenants being re-sharded away
  kDead,      ///< draining shard whose process/device is gone
};

/// Per-device health tracking over the survey verdict taxonomy, built on
/// the core/resilience.h CircuitBreaker so the service reuses the exact
/// "+R" trip/half-open/reset semantics (DESIGN.md §13 verdict→health
/// mapping):
///
///   kOk                -> breaker success (resets the failure streak; the
///                         success that answers a half-open probe revives a
///                         draining shard);
///   kCrash / kTimeout /
///   kValidationError   -> breaker failure (threshold consecutive failures
///                         trip the shard into kDraining);
///   kOom               -> neither: exhaustion is a CAPACITY signal, not a
///                         health signal — an over-subscribed but correct
///                         device must not be failed over, it must shed.
///
/// Thread-safe: verdicts may be recorded from concurrent shard workers;
/// the trip/reset edges are claimed by exactly one caller each (the
/// CircuitBreaker contract), so health markers are emitted exactly once
/// per transition.
class HealthTracker {
 public:
  /// `threshold` consecutive bad verdicts trip a shard; while tripped,
  /// every `decay`-th poll elects one half-open revival probe.
  HealthTracker(unsigned num_shards, unsigned threshold, std::uint64_t decay);

  /// Folds one batch verdict into shard `shard`'s health. Returns true iff
  /// this verdict TRIPPED the shard (healthy -> draining edge; the caller
  /// emits the trip marker and starts re-sharding).
  bool record(unsigned shard, core::Verdict v);

  /// True iff this poll elected the caller to run a half-open revival
  /// probe against a draining/dead shard (at most one election per decay
  /// window, the breaker's probe_ticket contract).
  bool probe_ticket(unsigned shard);

  /// A successful revival probe: reopens the shard for routing. Returns
  /// true iff this call performed the reset (draining -> healthy edge).
  bool revive(unsigned shard);

  /// Marks a draining shard's backing device/process as gone (waitpid
  /// reaped it, or the kill hook fired). Dead shards still take probe
  /// tickets — a probe may respawn the process.
  void mark_dead(unsigned shard);

  [[nodiscard]] ShardHealth health(unsigned shard) const;
  [[nodiscard]] bool routable(unsigned shard) const {
    return health(shard) == ShardHealth::kHealthy;
  }
  /// Shard ids currently routable, ascending (the deterministic re-shard
  /// candidate list).
  [[nodiscard]] std::vector<unsigned> healthy_shards() const;
  [[nodiscard]] unsigned num_shards() const {
    return static_cast<unsigned>(shards_.size());
  }

  [[nodiscard]] std::uint64_t trips(unsigned shard) const {
    return shards_[shard]->breaker.trips();
  }
  [[nodiscard]] std::uint64_t resets(unsigned shard) const {
    return shards_[shard]->breaker.resets();
  }
  [[nodiscard]] std::uint32_t consecutive_failures(unsigned shard) const {
    return shards_[shard]->breaker.consecutive_failures();
  }
  /// Per-verdict counts for shard telemetry ("how did this device fail").
  [[nodiscard]] std::uint64_t verdict_count(unsigned shard,
                                            core::Verdict v) const;

 private:
  struct Shard {
    Shard(unsigned threshold, std::uint64_t decay)
        : breaker(threshold, decay) {}
    core::CircuitBreaker breaker;
    std::atomic<std::uint8_t> dead{0};
    std::atomic<std::uint64_t> verdicts[5] = {};
  };

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace gms::service
