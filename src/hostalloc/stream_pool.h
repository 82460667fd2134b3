#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "hostalloc/extent_map.h"
#include "hostalloc/host_manager.h"

namespace gms::hostalloc {

/// Host-based stream-ordered pool — the third column of the host-based
/// family (DESIGN.md §14), modelled on cudaMallocAsync: frees are *deferred*
/// onto the freeing stream's reuse list and become globally visible only at
/// the next synchronization point. Until then the bytes are immediately
/// reusable by the same stream (stream-ordered semantics) but invisible to
/// every other stream — so a pool can honestly exhaust while another
/// stream sits on deferred memory.
///
/// Streams are modelled as smid % streams (the simulator has no stream
/// handles; SM affinity is the stable per-lane identity). Synchronization
/// points are kernel boundaries, detected lazily: the first malloc/free of
/// a new launch generation (Device::session_launches()) drains every
/// stream's deferred list into the global extent map, retaining up to
/// `release_threshold` bytes per stream as a warm cache — exactly
/// cudaMemPoolAttrReleaseThreshold semantics.
class StreamPool final : public HostManagerBase {
 public:
  /// How a lane's identity maps to its stream — the explicit API surface
  /// the ROADMAP noted was missing (streams used to be hard-derived from
  /// smid). Workloads pick a policy through the Config; kSmid reproduces
  /// the historical mapping byte-identically.
  enum class StreamAssign : std::uint8_t {
    kSmid,   ///< smid % streams (historical default: SM affinity)
    kBlock,  ///< block_idx % streams (per-launch-block streams)
    kWarp,   ///< global_warp_id % streams (finest stable granularity)
    kRank,   ///< thread_rank % streams (round-robin across lanes)
  };

  struct Config {
    unsigned streams = 4;
    std::uint64_t granule = 256;  ///< placement granularity (bytes, pow2)
    /// Bytes each stream may keep cached across a sync point (0 = release
    /// everything, the cudaMallocAsync default).
    std::uint64_t release_threshold = 0;
    StreamAssign stream_assign = StreamAssign::kSmid;
  };

  /// Schema binding Config to the runtime "{k=v}" layer (stream_pool.cpp).
  static const core::ConfigSchema<Config>& config_schema();

  StreamPool(gpu::Device& dev, std::size_t heap_bytes, Config cfg);
  StreamPool(gpu::Device& dev, std::size_t heap_bytes)
      : StreamPool(dev, heap_bytes, Config{}) {}

  [[nodiscard]] const Config& config() const { return cfg_; }

  [[nodiscard]] const core::AllocatorTraits& traits() const override;
  [[nodiscard]] void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override;
  void free(gpu::ThreadCtx& ctx, void* ptr) override;
  [[nodiscard]] core::AuditResult audit() override;

  // ---- device-visible stream ops ----------------------------------------
  /// Immediately publishes the calling stream's deferred + cached bytes to
  /// the global map (cudaMemPoolTrimTo(0) for one stream). Emits a kTrim
  /// placement event when anything was released.
  void trim(gpu::ThreadCtx& ctx);

  // ---- host-side control (quiescent, between launches) -------------------
  /// Drains every stream's deferred list into the global map, ignoring the
  /// release threshold — the explicit cudaDeviceSynchronize analogue.
  void synchronize_all();

  [[nodiscard]] unsigned streams() const { return cfg_.streams; }
  [[nodiscard]] std::uint64_t free_bytes() const { return extents_.free_bytes(); }
  [[nodiscard]] std::uint64_t pool_bytes() const { return pool_bytes_; }
  [[nodiscard]] std::size_t live_count() const { return live_.size(); }
  /// Bytes sitting on `stream`'s deferred list (invisible to other streams).
  [[nodiscard]] std::uint64_t deferred_bytes(unsigned stream) const;
  [[nodiscard]] std::uint64_t stream_reuse_count() const { return reuses_; }
  [[nodiscard]] std::uint64_t sync_count() const { return syncs_; }
  /// Mallocs that failed while another stream's deferred list could have
  /// satisfied them — the family's "exhaustion before sync" signature.
  [[nodiscard]] std::uint64_t starved_by_deferral() const { return starved_; }

 private:
  struct Deferred {
    std::uint64_t offset;
    std::uint64_t bytes;
  };
  struct StreamState {
    std::vector<Deferred> deferred;  ///< reusable by this stream only
    std::uint64_t deferred_bytes = 0;
  };

  [[nodiscard]] unsigned stream_of(const gpu::ThreadCtx& ctx) const {
    switch (cfg_.stream_assign) {
      case StreamAssign::kBlock:
        return ctx.block_idx() % cfg_.streams;
      case StreamAssign::kWarp:
        return ctx.global_warp_id() % cfg_.streams;
      case StreamAssign::kRank:
        return ctx.thread_rank() % cfg_.streams;
      case StreamAssign::kSmid:
        break;
    }
    return ctx.smid() % cfg_.streams;
  }
  /// Kernel-boundary detection; call with the planner lock held. Returns
  /// the per-stream bytes released so the caller can emit markers.
  void sync_if_new_launch_locked(gpu::ThreadCtx& ctx);
  /// Releases `st`'s deferred entries down to `keep_bytes` into the global
  /// map; returns the bytes released. Lock held.
  std::uint64_t drain_stream_locked(StreamState& st, std::uint64_t keep_bytes);

  Config cfg_;
  std::uint64_t pool_offset_ = 0;
  std::uint64_t pool_bytes_ = 0;

  // Host-side planning state, mutated only under the planner lock.
  ExtentMap extents_;  ///< globally visible free memory
  std::map<std::uint64_t, std::pair<std::uint64_t, unsigned>>
      live_;  ///< offset -> (bytes, owning stream)
  std::vector<StreamState> streams_;
  std::uint64_t synced_gen_ = 0;  ///< session_launches() last drained at
  std::uint64_t reuses_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t starved_ = 0;
  std::uint64_t invalid_frees_ = 0;
};

}  // namespace gms::hostalloc
