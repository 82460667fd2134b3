#include "service/shard_policy.h"

#include <stdexcept>

namespace gms::service {

ShardPolicy::Kind ShardPolicy::parse_kind(std::string_view s) {
  if (s == "hash") return Kind::kHash;
  if (s == "rr" || s == "round-robin") return Kind::kRoundRobin;
  throw std::invalid_argument{"unknown shard policy: \"" + std::string(s) +
                              "\" (expected hash|rr)"};
}

unsigned ShardPolicy::pick(std::uint32_t tenant,
                           const std::vector<unsigned>& healthy,
                           std::uint64_t salt) const {
  if (healthy.empty()) {
    throw std::logic_error{"ShardPolicy::pick over an empty healthy list"};
  }
  std::size_t idx = 0;
  switch (kind_) {
    case Kind::kHash: {
      // splitmix64 finalizer over (tenant, seed, salt) — stable across
      // platforms, well-scattered for consecutive tenant ids.
      std::uint64_t x = (std::uint64_t{tenant} << 32) ^ seed_ ^
                        (salt * 0x9E3779B97F4A7C15ull);
      x += 0x9E3779B97F4A7C15ull;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
      x ^= x >> 31;
      idx = static_cast<std::size_t>(x % healthy.size());
      break;
    }
    case Kind::kRoundRobin:
      idx = static_cast<std::size_t>((tenant + salt) % healthy.size());
      break;
  }
  return healthy[idx];
}

}  // namespace gms::service
