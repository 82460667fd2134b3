#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gms::service {

/// Deterministic tenant→shard placement. Both policies place over the
/// CURRENT healthy shard list, so placement and failover re-placement are
/// the same operation: re-sharding a drained device's tenants is just
/// pick() over the shrunken list with a bumped salt (the salt keeps a
/// re-pick from deterministically landing on the shard it just left when
/// the healthy list still contains it mid-drain).
class ShardPolicy {
 public:
  enum class Kind : std::uint8_t {
    kHash,        ///< splitmix-style hash of (tenant, seed, salt)
    kRoundRobin,  ///< tenant id modulo healthy count
  };

  ShardPolicy(Kind kind, std::uint64_t seed) : kind_(kind), seed_(seed) {}

  /// Parses "hash" | "rr" / "round-robin". Throws std::invalid_argument.
  static Kind parse_kind(std::string_view s);

  /// Picks a shard for `tenant` from `healthy` (ascending shard ids; must
  /// be non-empty). `salt` is the tenant's re-shard generation: 0 for
  /// initial placement, bumped once per failover so successive re-shards
  /// of one tenant walk different shards deterministically.
  [[nodiscard]] unsigned pick(std::uint32_t tenant,
                              const std::vector<unsigned>& healthy,
                              std::uint64_t salt) const;

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
  std::uint64_t seed_;
};

}  // namespace gms::service
