#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace_event.h"

namespace gms::trace {

/// What a service marker log (kinds 40-46) folds to, computable from a live
/// event log or from a committed failover .gmtrace alike: the marker count
/// and the deterministic digest the failover acceptance gate compares
/// across same-seed reruns. The per-tenant and per-shard counts live in
/// the host-side ServiceReport.
struct ServiceRollup {
  std::uint64_t service_markers = 0;  ///< total events in the 40-46 range
  /// FNV-1a over (kind, tenant, shard, round, size, offset) of every
  /// service marker in sequence order. Timing fields are excluded, so two
  /// same-seed runs that made the same decisions hash identically even
  /// though their wall clocks differ.
  std::uint64_t marker_digest = 1469598103934665603ull;

  bool operator==(const ServiceRollup&) const = default;
};

/// Folds every service marker in `events` (any other kinds are skipped)
/// into a rollup. Events must be in the emission order of the service's
/// coordinator — the order drain()/write_trace preserve.
[[nodiscard]] ServiceRollup roll_up_tenants(
    const std::vector<TraceEvent>& events);

}  // namespace gms::trace
