#include "hostalloc/stream_pool.h"

#include <algorithm>

#include "core/utils.h"

namespace gms::hostalloc {

const core::ConfigSchema<StreamPool::Config>& StreamPool::config_schema() {
  using core::Pow2;
  static const auto schema = [] {
    core::ConfigSchema<Config> s;
    s.u64("streams", &Config::streams, 1, 64, Pow2::kNo, {1, 2, 4, 8, 16})
        .u64("granule", &Config::granule, 16, 4096, Pow2::kYes,
             {64, 128, 256, 512})
        .u64("release_threshold", &Config::release_threshold, 0,
             std::uint64_t{1} << 30, Pow2::kNo,
             {0, std::uint64_t{1} << 20, std::uint64_t{16} << 20})
        .enum_("stream_assign", &Config::stream_assign,
               {{"smid", StreamAssign::kSmid},
                {"block", StreamAssign::kBlock},
                {"warp", StreamAssign::kWarp},
                {"rank", StreamAssign::kRank}});
    return s;
  }();
  return schema;
}

StreamPool::StreamPool(gpu::Device& dev, std::size_t heap_bytes, Config cfg)
    : HostManagerBase(dev, heap_bytes), cfg_(cfg) {
  const core::Stopwatch timer;
  if (cfg_.streams == 0) cfg_.streams = 1;

  std::size_t rest = 0;
  std::byte* pool = arena_.take_rest(rest, cfg_.granule, "stream pool");
  pool_offset_ = arena_.offset_of(pool);
  pool_bytes_ = rest / cfg_.granule * cfg_.granule;
  extents_.reset(pool_offset_, pool_bytes_);
  streams_.resize(cfg_.streams);
  synced_gen_ = dev_->session_launches();

  init_ms_ = timer.elapsed_ms();
}

const core::AllocatorTraits& StreamPool::traits() const {
  static const core::AllocatorTraits t{
      .name = "StreamPool",
      .family = "Host-based",
      .paper_ref = "[HB], cudaMallocAsync model",
      .year = 2021,
      .general_purpose = true,
      .its_safe = true,
      .extension = true,
      .host_based = true,
      .malloc_state_bytes = 128,  // extent nodes + live node + deferred entry
      .free_state_bytes = 96,
  };
  return t;
}

std::uint64_t StreamPool::drain_stream_locked(StreamState& st,
                                              std::uint64_t keep_bytes) {
  std::uint64_t released = 0;
  // Drain oldest-first; the newest entries stay cached (they are the
  // likeliest to be re-requested by the stream that just freed them).
  std::size_t keep_from = st.deferred.size();
  std::uint64_t kept = 0;
  while (keep_from > 0 && kept + st.deferred[keep_from - 1].bytes <= keep_bytes) {
    kept += st.deferred[keep_from - 1].bytes;
    --keep_from;
  }
  for (std::size_t i = 0; i < keep_from; ++i) {
    extents_.insert(st.deferred[i].offset, st.deferred[i].bytes);
    released += st.deferred[i].bytes;
  }
  st.deferred.erase(st.deferred.begin(),
                    st.deferred.begin() + static_cast<std::ptrdiff_t>(keep_from));
  st.deferred_bytes -= released;
  return released;
}

void StreamPool::sync_if_new_launch_locked(gpu::ThreadCtx& ctx) {
  const std::uint64_t gen = dev_->session_launches();
  if (gen == synced_gen_) return;
  synced_gen_ = gen;
  ++syncs_;
  for (unsigned s = 0; s < cfg_.streams; ++s) {
    const std::uint64_t released =
        drain_stream_locked(streams_[s], cfg_.release_threshold);
    if (released > 0) {
      trace::mark(sink_, ctx, trace::EventKind::kHostStreamSync, released, s);
    }
  }
}

void* StreamPool::malloc(gpu::ThreadCtx& ctx, std::size_t size) {
  if (size > pool_bytes_) return nullptr;  // before rounding: no overflow
  const std::uint64_t rounded =
      core::round_up(std::max<std::uint64_t>(size, 1), cfg_.granule);
  const unsigned stream = stream_of(ctx);

  alloc::DeviceLockGuard guard(planner_lock(), ctx);
  sync_if_new_launch_locked(ctx);
  StreamState& st = streams_[stream];

  // Stream-ordered reuse: the caller's own deferred frees are fair game
  // immediately (first fit, splitting the remainder back onto the list).
  std::uint64_t off = 0;
  bool found = false;
  for (std::size_t i = 0; i < st.deferred.size(); ++i) {
    if (st.deferred[i].bytes < rounded) continue;
    off = st.deferred[i].offset;
    if (st.deferred[i].bytes > rounded) {
      st.deferred[i].offset += rounded;
      st.deferred[i].bytes -= rounded;
    } else {
      st.deferred.erase(st.deferred.begin() + static_cast<std::ptrdiff_t>(i));
    }
    st.deferred_bytes -= rounded;
    ++reuses_;
    found = true;
    break;
  }
  if (!found && !extents_.carve(rounded, off)) {
    // Exhausted. If a sibling stream's deferred list could have served the
    // request, this failure is the deferral cost itself — count it so the
    // benches can report exhaustion-before-sync honestly.
    for (unsigned s = 0; s < cfg_.streams; ++s) {
      if (s == stream) continue;
      for (const Deferred& d : streams_[s].deferred) {
        if (d.bytes >= rounded) {
          ++starved_;
          return nullptr;
        }
      }
    }
    return nullptr;
  }
  live_.emplace(off, std::pair{rounded, stream});
  trace::mark(sink_, ctx, trace::EventKind::kHostCarve, rounded, off);
  return arena_.at(off);
}

void StreamPool::free(gpu::ThreadCtx& ctx, void* ptr) {
  if (ptr == nullptr) return;
  if (!arena_.contains(ptr)) return;
  const std::uint64_t off = arena_.offset_of(ptr);
  const unsigned stream = stream_of(ctx);

  alloc::DeviceLockGuard guard(planner_lock(), ctx);
  sync_if_new_launch_locked(ctx);
  const auto it = live_.find(off);
  if (it == live_.end()) {
    ++invalid_frees_;  // double/invalid free: absorbed, never corrupts
    return;
  }
  const std::uint64_t bytes = it->second.first;
  live_.erase(it);
  // Deferred onto the *freeing* stream (cudaFreeAsync ordering): invisible
  // to other streams until the next sync point.
  streams_[stream].deferred.push_back({off, bytes});
  streams_[stream].deferred_bytes += bytes;
}

void StreamPool::trim(gpu::ThreadCtx& ctx) {
  const unsigned stream = stream_of(ctx);
  alloc::DeviceLockGuard guard(planner_lock(), ctx);
  const std::uint64_t released = drain_stream_locked(streams_[stream], 0);
  if (released > 0) {
    trace::mark(sink_, ctx, trace::EventKind::kHostTrim, released, stream);
  }
}

void StreamPool::synchronize_all() {
  // Quiescent host-side path (no ThreadCtx, no lock contention possible).
  for (StreamState& st : streams_) {
    drain_stream_locked(st, 0);
  }
  synced_gen_ = dev_->session_launches();
  ++syncs_;
}

std::uint64_t StreamPool::deferred_bytes(unsigned stream) const {
  return stream < streams_.size() ? streams_[stream].deferred_bytes : 0;
}

core::AuditResult StreamPool::audit() {
  core::AuditResult r;
  r.supported = true;

  auto fail = [&r](std::string why) {
    ++r.failures;
    r.ok = false;
    if (r.detail.empty()) r.detail = std::move(why);
  };

  std::string why;
  if (!extents_.check(pool_offset_, pool_bytes_, r.structures_walked, why)) {
    fail("extent map: " + why);
  }

  // Every byte is in exactly one of three states: globally free, live, or
  // deferred on a stream. Collect live + deferred spans and verify they are
  // disjoint from each other and from the free map, and that the three
  // populations tile the pool byte-exactly (host planning loses nothing,
  // even across cancelled kernels — see HostManagerBase).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  std::uint64_t live_bytes = 0;
  for (const auto& [off, ext] : live_) {
    ++r.structures_walked;
    if (ext.second >= cfg_.streams) {
      fail("live extent on impossible stream " + std::to_string(ext.second));
    }
    spans.emplace_back(off, ext.first);
    live_bytes += ext.first;
  }
  std::uint64_t deferred_total = 0;
  for (unsigned s = 0; s < streams_.size(); ++s) {
    std::uint64_t stream_sum = 0;
    for (const Deferred& d : streams_[s].deferred) {
      ++r.structures_walked;
      spans.emplace_back(d.offset, d.bytes);
      stream_sum += d.bytes;
    }
    if (stream_sum != streams_[s].deferred_bytes) {
      fail("stream " + std::to_string(s) + " deferred-byte drift: counter " +
           std::to_string(streams_[s].deferred_bytes) + ", walked " +
           std::to_string(stream_sum));
    }
    deferred_total += stream_sum;
  }
  for (const auto& [off, bytes] : extents_.by_offset()) {
    spans.emplace_back(off, bytes);
  }
  std::sort(spans.begin(), spans.end());
  std::uint64_t prev_end = pool_offset_;
  for (const auto& [off, bytes] : spans) {
    if (off < pool_offset_ || off + bytes > pool_offset_ + pool_bytes_) {
      fail("span outside the pool @ " + std::to_string(off));
      break;
    }
    if (off < prev_end) {
      fail("overlapping spans @ " + std::to_string(off));
      break;
    }
    prev_end = off + bytes;
  }
  if (extents_.free_bytes() + live_bytes + deferred_total != pool_bytes_) {
    fail("pool accounting drift: free " +
         std::to_string(extents_.free_bytes()) + " + live " +
         std::to_string(live_bytes) + " + deferred " +
         std::to_string(deferred_total) + " != pool " +
         std::to_string(pool_bytes_));
  }
  return r;
}

}  // namespace gms::hostalloc
