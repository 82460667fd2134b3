#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/trace_event.h"

namespace gms::trace {

inline constexpr char kTraceMagic[8] = {'G', 'M', 'T', 'R', 'A', 'C', 'E', 0};
inline constexpr std::uint32_t kTraceVersion = 1;

/// Fixed-size .gmtrace file header: capture context a replay needs to build
/// an equivalent device (GpuConfig essentials, heap size) plus the source
/// allocator and session totals for provenance. Trivially copyable — written
/// byte-verbatim, so the layout is part of the format version.
struct TraceHeader {
  char magic[8] = {'G', 'M', 'T', 'R', 'A', 'C', 'E', 0};
  std::uint32_t version = kTraceVersion;
  std::uint32_t header_bytes = 0;  ///< sizeof(TraceHeader), layout check
  std::uint64_t event_count = 0;
  std::uint64_t dropped = 0;      ///< ring-overflow losses during capture
  std::uint64_t heap_bytes = 0;   ///< manageable memory given to the manager
  std::uint64_t arena_bytes = 0;  ///< full device arena
  std::uint32_t num_sms = 0;
  std::uint32_t warp_size = 0;
  std::uint32_t reserved = 1;            ///< always 1; nothing reads it
  std::uint32_t kernel_launches = 0;     ///< Device::session_launches()
  std::uint64_t threads_launched = 0;    ///< Device::session_threads_launched()
  char allocator[64] = {};               ///< NUL-padded registry name

  void set_allocator(const std::string& name);
  [[nodiscard]] std::string allocator_name() const;
};

static_assert(sizeof(TraceHeader) == 136,
              "TraceHeader layout is part of the .gmtrace format");

/// An in-memory trace: header + events ordered by seq.
struct Trace {
  TraceHeader header;
  std::vector<TraceEvent> events;
};

/// Writes header + events to `path` (creating parent directories), fixing up
/// header.event_count/header_bytes. Throws std::runtime_error on I/O errors.
void write_trace(const std::string& path, TraceHeader header,
                 std::span<const TraceEvent> events);

/// Reads and validates a .gmtrace file. Throws std::runtime_error on missing
/// files, bad magic/version, header-size mismatch, or truncation (the file
/// must hold exactly header.event_count events).
[[nodiscard]] Trace read_trace(const std::string& path);

/// The canonical allocation-request byte stream of a trace: allocation
/// events only, kernel ordinals densified, ordered by (kernel, thread_rank,
/// lane_op), each packed as {kernel, rank, lane_op, kind, size}. Timestamps,
/// seq numbers, SM/block geometry, offsets and counter deltas are excluded,
/// so the stream depends only on the request sequence — two replays of one
/// trace yield byte-identical canonical streams regardless of num_sms or
/// scheduling interleave (the determinism contract tests assert on).
[[nodiscard]] std::vector<std::byte> canonical_bytes(
    std::span<const TraceEvent> events);

/// FNV-1a over canonical_bytes — the replay-determinism digest.
[[nodiscard]] std::uint64_t canonical_digest(std::span<const TraceEvent> events);

}  // namespace gms::trace
