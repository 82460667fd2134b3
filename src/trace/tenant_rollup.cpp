#include "trace/tenant_rollup.h"

namespace gms::trace {

namespace {

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  // FNV-1a over the 8 value bytes, the canonical_digest recipe.
  for (unsigned i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 1099511628211ull;
  }
}

}  // namespace

ServiceRollup roll_up_tenants(const std::vector<TraceEvent>& events) {
  ServiceRollup out;
  for (const auto& ev : events) {
    if (!is_service_event(ev.event_kind())) continue;
    ++out.service_markers;
    fnv_mix(out.marker_digest, ev.kind);
    fnv_mix(out.marker_digest, ev.thread_rank);
    fnv_mix(out.marker_digest, ev.block);
    fnv_mix(out.marker_digest, ev.kernel_seq);
    fnv_mix(out.marker_digest, ev.size);
    fnv_mix(out.marker_digest, ev.offset);
  }
  return out;
}

}  // namespace gms::trace
