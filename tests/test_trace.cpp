// Trace subsystem tests (DESIGN.md §9): .gmtrace round-trip and strict read
// validation, ring-overflow drop accounting (drop-never-overwrite), the
// disabled-recorder fast path, the replay determinism contract — the
// canonical request stream of a replay is byte-identical to the recording's
// regardless of the replay device's SM count — and the exact lane-marker
// stream the "+R" and host-placement layers record through their
// trace::MarkerSink.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "allocators/xmalloc.h"
#include "core/registry.h"
#include "core/stack_builder.h"
#include "gpu/device.h"
#include "hostalloc/stream_pool.h"
#include "trace/trace_format.h"
#include "trace/trace_recorder.h"
#include "trace/trace_replay.h"
#include "trace/tracing_manager.h"

namespace gms {
namespace {

using gpu::Device;
using gpu::GpuConfig;
using gpu::ThreadCtx;

// ScatterAlloc needs a 4 MiB chunk super block and a 4 MiB multi-page one
// plus metadata (below that it serves no multi-page run) — keep the test
// heap comfortably above that.
constexpr std::size_t kHeapBytes = 64u << 20;

struct RegisterAllocators {
  RegisterAllocators() { core::register_all_allocators(); }
};
const RegisterAllocators register_allocators;

std::string tmp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// Records one alloc/free churn session against `allocator` and returns the
/// in-memory trace (header filled the way bench_common does).
trace::Trace record_session(const std::string& allocator, unsigned num_sms,
                            std::size_t threads = 256) {
  Device dev(kHeapBytes + (4u << 20), GpuConfig{.num_sms = num_sms});
  trace::TraceRecorder recorder(num_sms);
  trace::TracingManager mgr(
      core::StackBuilder(dev).build(allocator, kHeapBytes).manager, recorder,
      dev.arena());
  dev.set_launch_observer(&recorder);
  recorder.set_enabled(true);

  std::vector<void*> ptrs(threads, nullptr);
  dev.launch_n(threads, [&](ThreadCtx& t) {
    const std::size_t size = 16 + (t.thread_rank() % 7) * 16;
    void* p = mgr.malloc(t, size);
    if (p != nullptr) *static_cast<std::uint8_t*>(p) = 1;
    ptrs[t.thread_rank()] = p;
  });
  dev.launch_n(threads,
               [&](ThreadCtx& t) { mgr.free(t, ptrs[t.thread_rank()]); });

  recorder.set_enabled(false);
  dev.set_launch_observer(nullptr);

  trace::Trace out;
  out.events = recorder.drain();
  out.header.dropped = recorder.dropped();
  out.header.heap_bytes = kHeapBytes;
  out.header.arena_bytes = dev.arena().size();
  out.header.num_sms = num_sms;
  out.header.warp_size = gpu::kWarpSize;
  out.header.set_allocator(allocator);
  return out;
}

/// Replays `src` against a fresh device with `num_sms` SMs, re-recording
/// through the same tracing stack, and returns the canonical digest of the
/// re-captured stream plus the replay result.
std::pair<std::uint64_t, trace::ReplayResult> replay_recaptured(
    const trace::Trace& src, const std::string& allocator, unsigned num_sms) {
  trace::TraceReplayer replayer(src);
  Device dev(kHeapBytes + (4u << 20), GpuConfig{.num_sms = num_sms});
  trace::TraceRecorder recorder(num_sms);
  trace::TracingManager mgr(
      core::StackBuilder(dev).build(allocator, kHeapBytes).manager, recorder,
      dev.arena());
  dev.set_launch_observer(&recorder);
  recorder.set_enabled(true);
  auto result = replayer.replay(dev, mgr);
  recorder.set_enabled(false);
  dev.set_launch_observer(nullptr);
  return {trace::canonical_digest(recorder.drain()), result};
}

TEST(TraceFormat, RoundTripPreservesHeaderAndEvents) {
  const auto src = record_session("ScatterAlloc", 4);
  ASSERT_FALSE(src.events.empty());

  const auto path = tmp_path("roundtrip.gmtrace");
  trace::write_trace(path, src.header, src.events);
  const auto back = trace::read_trace(path);

  EXPECT_EQ(back.header.event_count, src.events.size());
  EXPECT_EQ(back.header.heap_bytes, src.header.heap_bytes);
  EXPECT_EQ(back.header.num_sms, src.header.num_sms);
  EXPECT_EQ(back.header.allocator_name(), "ScatterAlloc");
  ASSERT_EQ(back.events.size(), src.events.size());
  EXPECT_EQ(0, std::memcmp(back.events.data(), src.events.data(),
                           src.events.size() * sizeof(trace::TraceEvent)));
}

TEST(TraceFormat, RejectsCorruptAndTruncatedFiles) {
  const auto src = record_session("ScatterAlloc", 2, 64);
  const auto path = tmp_path("corrupt.gmtrace");

  EXPECT_THROW((void)trace::read_trace(tmp_path("no-such.gmtrace")),
               std::runtime_error);

  // Bad magic.
  trace::write_trace(path, src.header, src.events);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.write("BOGUS", 5);
  }
  EXPECT_THROW((void)trace::read_trace(path), std::runtime_error);

  // Unknown version.
  trace::write_trace(path, src.header, src.events);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(offsetof(trace::TraceHeader, version));
    const std::uint32_t bad = 999;
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }
  EXPECT_THROW((void)trace::read_trace(path), std::runtime_error);

  // Truncated payload: the file must hold exactly event_count events.
  trace::write_trace(path, src.header, src.events);
  std::filesystem::resize_file(
      path, std::filesystem::file_size(path) - sizeof(trace::TraceEvent) / 2);
  EXPECT_THROW((void)trace::read_trace(path), std::runtime_error);
}

TEST(TraceRecorder, RingOverflowDropsNeverOverwrites) {
  trace::TraceRecorder recorder(1, {.ring_capacity = 8});
  recorder.set_enabled(true);
  for (std::uint32_t i = 0; i < 20; ++i) {
    trace::TraceEvent ev;
    ev.kind = static_cast<std::uint8_t>(trace::EventKind::kMalloc);
    ev.thread_rank = i;
    ev.size = 64;
    recorder.record(0, ev);
  }
  EXPECT_EQ(recorder.dropped(), 12u);

  // The survivors are the exact prefix — a truncated trace still replays as
  // a faithful prefix of the session instead of a scrambled window.
  const auto events = recorder.drain();
  ASSERT_EQ(events.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].thread_rank, i);
  }
  // Drop counts persist across the drain (they describe the whole session).
  EXPECT_EQ(recorder.dropped(), 12u);
}

TEST(TracingManager, DisabledRecorderBuffersNothing) {
  Device dev(kHeapBytes + (4u << 20), GpuConfig{.num_sms = 2});
  trace::TraceRecorder recorder(2);
  trace::TracingManager mgr(
      core::StackBuilder(dev).build("ScatterAlloc", kHeapBytes).manager,
      recorder, dev.arena());
  dev.set_launch_observer(&recorder);  // enabled() gates the markers too

  std::vector<void*> ptrs(128, nullptr);
  dev.launch_n(128, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr.malloc(t, 32);
  });
  dev.launch_n(128, [&](ThreadCtx& t) { mgr.free(t, ptrs[t.thread_rank()]); });
  dev.set_launch_observer(nullptr);

  EXPECT_EQ(recorder.buffered(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceReplay, DeterministicAcrossSmCounts) {
  const auto src = record_session("ScatterAlloc", 4);
  trace::TraceReplayer replayer(src);
  ASSERT_GT(replayer.kernels(), 0u);

  // The recording's own canonical stream is the reference; every replay —
  // whatever the device geometry — must re-issue exactly that stream.
  for (const unsigned sms : {1u, 2u, 4u}) {
    const auto [digest, result] = replay_recaptured(src, "ScatterAlloc", sms);
    EXPECT_EQ(digest, replayer.request_digest()) << sms << " SMs";
    EXPECT_EQ(result.failed_mallocs, 0u) << sms << " SMs";
  }
}

TEST(TraceReplay, ReplayMatchesLiveRunCounts) {
  const auto src = record_session("ScatterAlloc", 4);
  std::uint64_t live_mallocs = 0;
  std::uint64_t live_frees = 0;
  for (const auto& ev : src.events) {
    if (ev.event_kind() == trace::EventKind::kMalloc) ++live_mallocs;
    if (ev.event_kind() == trace::EventKind::kFree) ++live_frees;
  }
  ASSERT_EQ(live_mallocs, 256u);
  ASSERT_EQ(live_frees, 256u);

  // Replaying against a different manager re-issues the same call counts and
  // exercises the target's real synchronisation (atomics observed).
  const auto [digest, result] = replay_recaptured(src, "Ouro-P-VA", 4);
  EXPECT_EQ(digest, trace::TraceReplayer(src).request_digest());
  EXPECT_EQ(result.mallocs, live_mallocs);
  EXPECT_EQ(result.frees, live_frees);
  EXPECT_EQ(result.failed_mallocs, 0u);
  EXPECT_EQ(result.skipped_frees, 0u);
  EXPECT_GT(result.counters.atomic_total(), 0u);
}

TEST(TraceReplay, XMallocRuntimeConfigDefaultsAreByteIdentical) {
  // The XMalloc ladder/superblock refactor (compile-time constants -> runtime
  // Config) must not perturb behaviour: a trace recorded against the
  // registry's default instance replays byte-identically against an instance
  // built from an explicitly spelled-out Config carrying the old constants.
  const auto src = record_session("XMalloc", 4);
  ASSERT_FALSE(src.events.empty());
  trace::TraceReplayer replayer(src);

  const alloc::XMalloc::Config explicit_defaults{
      .fifo1_capacity = 4096,
      .fifo2_capacity = 1024,
      .class_base = 16,
      .num_classes = 9,
      .blocks_per_super = 32,
  };
  Device dev(kHeapBytes + (4u << 20), GpuConfig{.num_sms = 4});
  trace::TraceRecorder recorder(4);
  trace::TracingManager mgr(
      std::make_unique<alloc::XMalloc>(dev, kHeapBytes, explicit_defaults),
      recorder, dev.arena());
  dev.set_launch_observer(&recorder);
  recorder.set_enabled(true);
  const auto result = replayer.replay(dev, mgr);
  recorder.set_enabled(false);
  dev.set_launch_observer(nullptr);

  EXPECT_EQ(trace::canonical_digest(recorder.drain()),
            replayer.request_digest());
  EXPECT_EQ(result.failed_mallocs, 0u);
  EXPECT_EQ(result.skipped_frees, 0u);

  // The derived geometry reproduces the old static ladder: 16 B .. 4096 B.
  alloc::XMalloc probe(dev, 1u << 20, alloc::XMalloc::Config{});
  EXPECT_EQ(probe.payload_classes().num_classes(), 9u);
  EXPECT_EQ(probe.payload_classes().class_bytes(0), 16u);
  EXPECT_EQ(probe.payload_classes().class_bytes(8), 4096u);
  EXPECT_EQ(probe.payload_classes().class_for(4097),
            alloc_core::SizeClassMap::kNoClass);
}

TEST(TraceReplay, SkipsFreesForNoFreeTargets) {
  const auto src = record_session("ScatterAlloc", 2, 128);
  trace::TraceReplayer replayer(src);

  // The Atomic baseline cannot free; its traits force frees into
  // skipped_frees instead of crashing the replay.
  Device dev(kHeapBytes + (4u << 20), GpuConfig{.num_sms = 2});
  auto mgr = core::StackBuilder(dev).build("Atomic", kHeapBytes).manager;
  const auto result = replayer.replay(dev, *mgr);
  EXPECT_EQ(result.mallocs, 128u);
  EXPECT_EQ(result.frees, 0u);
  EXPECT_EQ(result.skipped_frees, 128u);
}

// ---- lane markers ---------------------------------------------------------

/// Marker count and first marker of each lane-marker kind in one recording.
struct MarkerStream {
  std::map<trace::EventKind, std::uint64_t> counts;
  std::map<trace::EventKind, trace::TraceEvent> first;
  std::uint64_t first_malloc_offset = trace::kNullOffset;
};

/// Records `spec` at 1 SM, where the lane interleaving and so the marker
/// stream is exact: two churn rounds of 64-256 B requests, then two waves
/// of 192 KiB per lane that overrun the heap, so retry, reserve fallback,
/// breaker and unrecovered steps all fire. A StreamPool base also trims
/// lane 0's stream in each free kernel.
MarkerStream record_markers(const std::string& spec) {
  Device dev(kHeapBytes + (8u << 20), GpuConfig{.num_sms = 1});
  auto stack = core::StackBuilder(dev).build(spec, kHeapBytes);
  auto* pool = dynamic_cast<hostalloc::StreamPool*>(stack.base);
  stack.recorder->set_enabled(true);
  constexpr std::size_t kThreads = 512;
  std::vector<void*> ptrs(kThreads, nullptr);
  for (unsigned round = 0; round < 4; ++round) {
    dev.launch_n(kThreads, [&](ThreadCtx& t) {
      const std::size_t size =
          round < 2 ? 64 + (t.thread_rank() % 13) * 16 : std::size_t{192} << 10;
      ptrs[t.thread_rank()] = stack.manager->malloc(t, size);
    });
    dev.launch_n(kThreads, [&](ThreadCtx& t) {
      stack.manager->free(t, ptrs[t.thread_rank()]);
      if (pool != nullptr && t.thread_rank() == 0) pool->trim(t);
    });
  }
  stack.recorder->set_enabled(false);
  dev.set_launch_observer(nullptr);
  EXPECT_EQ(stack.recorder->dropped(), 0u);

  MarkerStream out;
  for (const auto& ev : stack.recorder->drain()) {
    const auto kind = ev.event_kind();
    if (kind == trace::EventKind::kMalloc && ev.offset != trace::kNullOffset &&
        out.first_malloc_offset == trace::kNullOffset) {
      out.first_malloc_offset = ev.offset;
    }
    if (!trace::is_resilience_event(kind) &&
        !trace::is_host_placement_event(kind)) {
      continue;
    }
    ++out.counts[kind];
    out.first.try_emplace(kind, ev);
  }
  return out;
}

struct ExpectedMarker {
  trace::EventKind kind;
  std::uint64_t count;
  std::uint64_t size;    ///< of the kind's first marker
  std::uint64_t offset;  ///< of the kind's first marker
};

void expect_markers(const MarkerStream& got,
                    const std::vector<ExpectedMarker>& want) {
  EXPECT_EQ(got.counts.size(), want.size());
  for (const auto& w : want) {
    SCOPED_TRACE(trace::to_string(w.kind));
    const auto it = got.first.find(w.kind);
    ASSERT_NE(it, got.first.end());
    EXPECT_EQ(got.counts.at(w.kind), w.count);
    EXPECT_EQ(it->second.size, w.size);
    EXPECT_EQ(it->second.offset, w.offset);
  }
}

// Every lane-marker kind these stacks reach, pinned by exact count and by
// the size/offset its EventKind documents, so a wrong kind or a swapped
// field anywhere between a layer and the recorder fails here.
TEST(LaneMarkers, ResilientHostStacksRecordExactStreams) {
  using K = trace::EventKind;
  constexpr std::uint64_t kWave = std::uint64_t{192} << 10;
  // The reserve pool is the heap's tail (8% by default); its first block's
  // payload sits past the inner heap and the block's 16-byte header.
  constexpr std::uint64_t kReserveBlock =
      kHeapBytes - kHeapBytes / 100 * 8 + 16;

  const auto extent =
      record_markers("trace>resilient>fault{mode=nth,n=7}>HostExtent");
  expect_markers(
      extent,
      {
          {K::kRetrySuccess, 222, 80, 1},          // request; winning attempt
          {K::kFallbackAlloc, 40, kWave, kReserveBlock},  // request; offset
          {K::kFallbackFree, 40, 0, kReserveBlock},       // the same block
          {K::kBreakerTrip, 2, kWave, 16},  // request; failures at the trip
          {K::kBreakerReset, 1, kWave, 0},
          {K::kUnrecovered, 366, kWave, 0},
          {K::kHostCarve, 1642, 256, 964864},  // granule-rounded; offset
          {K::kHostCoalesce, 1552, 256, 1},    // merged bytes; merges
      });
  // A carve's offset is the payload the traced malloc returned.
  EXPECT_EQ(extent.first.at(K::kHostCarve).offset, extent.first_malloc_offset);

  const auto pool =
      record_markers("trace>resilient>fault{mode=nth,n=5}>StreamPool");
  expect_markers(
      pool,
      {
          {K::kRetrySuccess, 323, 112, 1},
          {K::kFallbackAlloc, 40, kWave, kReserveBlock},
          {K::kFallbackFree, 40, 0, kReserveBlock},
          {K::kBreakerTrip, 2, kWave, 16},
          {K::kBreakerReset, 1, kWave, 0},
          {K::kUnrecovered, 356, kWave, 0},
          {K::kHostCarve, 1652, 256, 256},
          {K::kHostStreamSync, 3, 130816, 0},  // bytes made global; stream
          {K::kHostTrim, 3, 256, 0},           // bytes released; stream
      });
  EXPECT_EQ(pool.first.at(K::kHostCarve).offset, pool.first_malloc_offset);
}

}  // namespace
}  // namespace gms
