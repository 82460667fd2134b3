#include "service/health.h"

namespace gms::service {

HealthTracker::HealthTracker(unsigned num_shards, unsigned threshold,
                             std::uint64_t decay) {
  shards_.reserve(num_shards);
  for (unsigned i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(threshold, decay));
  }
}

bool HealthTracker::record(unsigned shard, core::Verdict v) {
  auto& s = *shards_[shard];
  s.verdicts[static_cast<unsigned>(v)].fetch_add(1,
                                                 std::memory_order_relaxed);
  switch (v) {
    case core::Verdict::kOk:
      s.breaker.record_success();
      return false;
    case core::Verdict::kOom:
      // Capacity, not health: leave the failure streak untouched so an
      // exhausted-but-correct device neither trips nor masks a real streak.
      return false;
    case core::Verdict::kCrash:
    case core::Verdict::kTimeout:
    case core::Verdict::kValidationError:
      return s.breaker.record_failure();
  }
  return false;
}

bool HealthTracker::probe_ticket(unsigned shard) {
  return shards_[shard]->breaker.probe_ticket();
}

bool HealthTracker::revive(unsigned shard) {
  auto& s = *shards_[shard];
  s.dead.store(0, std::memory_order_release);
  return s.breaker.record_success();
}

void HealthTracker::mark_dead(unsigned shard) {
  shards_[shard]->dead.store(1, std::memory_order_release);
}

ShardHealth HealthTracker::health(unsigned shard) const {
  const auto& s = *shards_[shard];
  if (!s.breaker.open()) return ShardHealth::kHealthy;
  return s.dead.load(std::memory_order_acquire) != 0 ? ShardHealth::kDead
                                                     : ShardHealth::kDraining;
}

std::vector<unsigned> HealthTracker::healthy_shards() const {
  std::vector<unsigned> out;
  for (unsigned i = 0; i < shards_.size(); ++i) {
    if (routable(i)) out.push_back(i);
  }
  return out;
}

std::uint64_t HealthTracker::verdict_count(unsigned shard,
                                           core::Verdict v) const {
  return shards_[shard]->verdicts[static_cast<unsigned>(v)].load(
      std::memory_order_relaxed);
}

}  // namespace gms::service
