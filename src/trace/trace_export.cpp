#include "trace/trace_export.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace gms::trace {
namespace {

void ensure_parent_dir(const std::string& path) {
  auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
}

class File {
 public:
  File(const std::string& path) : path_(path) {
    ensure_parent_dir(path);
    f_ = std::fopen(path.c_str(), "w");
    if (f_ == nullptr) {
      throw std::runtime_error("cannot open " + path + " for writing");
    }
  }
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  template <typename... Args>
  void printf(const char* fmt, Args... args) {
    std::fprintf(f_, fmt, args...);
  }

  void close() {
    const int rc = std::fclose(f_);
    f_ = nullptr;
    if (rc != 0) throw std::runtime_error("write failed: " + path_);
  }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
};

/// Chrome category of a lane marker, by the EventKind range it sits in.
const char* marker_category(EventKind k) {
  if (is_resilience_event(k)) return "resilience";
  if (is_aggregation_event(k)) return "warpagg";
  return "hostalloc";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

}  // namespace

void write_chrome_trace(const std::string& path, const Trace& trace) {
  File f(path);
  const unsigned host_tid = trace.header.num_sms;

  f.printf("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  f.printf(
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
      "\"args\":{\"name\":\"gms %s\"}}",
      json_escape(trace.header.allocator_name()).c_str());
  for (unsigned sm = 0; sm < trace.header.num_sms; ++sm) {
    f.printf(
        ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":%u,"
        "\"args\":{\"name\":\"SM %u\"}}",
        sm, sm);
  }
  f.printf(
      ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":%u,"
      "\"args\":{\"name\":\"host\"}}",
      host_tid);

  // Flow ids: one per matched malloc→free pair, keyed by live offset.
  std::unordered_map<std::uint64_t, std::uint64_t> live_flow;
  std::uint64_t next_flow = 1;

  for (const auto& ev : trace.events) {
    const auto kind = ev.event_kind();
    switch (kind) {
      case EventKind::kMalloc:
      case EventKind::kWarpMalloc:
      case EventKind::kFree:
      case EventKind::kWarpFreeAll: {
        f.printf(
            ",\n{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"alloc\","
            "\"pid\":0,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
            "\"args\":{\"kernel\":%" PRIu32 ",\"rank\":%" PRIu32
            ",\"block\":%" PRIu32 ",\"warp\":%u,\"lane\":%u,\"size\":%" PRIu64
            ",\"offset\":%" PRIu64 ",\"atomics\":%" PRIu32
            ",\"cas_failed\":%" PRIu32 "}}",
            to_string(kind), static_cast<unsigned>(ev.smid), us(ev.t_ns),
            us(ev.dur_ns), ev.kernel_seq, ev.thread_rank, ev.block,
            static_cast<unsigned>(ev.warp), static_cast<unsigned>(ev.lane),
            ev.size, ev.offset, ev.atomics, ev.cas_failed);
        if ((kind == EventKind::kMalloc || kind == EventKind::kWarpMalloc) &&
            ev.offset != kNullOffset) {
          const std::uint64_t id = next_flow++;
          live_flow[ev.offset] = id;
          f.printf(
              ",\n{\"ph\":\"s\",\"name\":\"lifetime\",\"cat\":\"lifetime\","
              "\"id\":%" PRIu64 ",\"pid\":0,\"tid\":%u,\"ts\":%.3f}",
              id, static_cast<unsigned>(ev.smid), us(ev.t_ns + ev.dur_ns));
        } else if (kind == EventKind::kFree && ev.offset != kNullOffset) {
          if (auto it = live_flow.find(ev.offset); it != live_flow.end()) {
            f.printf(
                ",\n{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"lifetime\","
                "\"cat\":\"lifetime\",\"id\":%" PRIu64
                ",\"pid\":0,\"tid\":%u,\"ts\":%.3f}",
                it->second, static_cast<unsigned>(ev.smid), us(ev.t_ns));
            live_flow.erase(it);
          }
        }
        break;
      }
      case EventKind::kKernelBegin:
        f.printf(
            ",\n{\"ph\":\"B\",\"name\":\"kernel %" PRIu32
            " <<<%" PRIu64 ",%" PRIu64 ">>>\",\"cat\":\"kernel\","
            "\"pid\":0,\"tid\":%u,\"ts\":%.3f}",
            ev.kernel_seq, ev.size >> 32, ev.size & 0xFFFFFFFF, host_tid,
            us(ev.t_ns));
        break;
      case EventKind::kKernelEnd:
        f.printf(",\n{\"ph\":\"E\",\"pid\":0,\"tid\":%u,\"ts\":%.3f}",
                 host_tid, us(ev.t_ns));
        break;
      case EventKind::kWatchdogCancel:
        f.printf(
            ",\n{\"ph\":\"i\",\"name\":\"watchdog cancel\",\"s\":\"p\","
            "\"cat\":\"watchdog\",\"pid\":0,\"tid\":%u,\"ts\":%.3f}",
            host_tid, us(ev.t_ns));
        break;
      case EventKind::kBarrier:
        f.printf(
            ",\n{\"ph\":\"i\",\"name\":\"barrier b%" PRIu32
            "\",\"s\":\"t\",\"cat\":\"barrier\",\"pid\":0,\"tid\":%u,"
            "\"ts\":%.3f}",
            ev.block, static_cast<unsigned>(ev.smid), us(ev.t_ns));
        break;
      case EventKind::kTenantShed:
      case EventKind::kQuotaReject:
      case EventKind::kShardHealthTrip:
      case EventKind::kShardHealthReset:
      case EventKind::kTenantReshard:
      case EventKind::kBatchRetry:
      case EventKind::kQuarantineEngage:
        // AllocService markers: host-track instants keyed by tenant
        // (thread_rank) and shard (block), with the service round as the
        // kernel ordinal.
        f.printf(
            ",\n{\"ph\":\"i\",\"name\":\"%s\",\"s\":\"p\","
            "\"cat\":\"service\",\"pid\":0,\"tid\":%u,\"ts\":%.3f,"
            "\"args\":{\"tenant\":%" PRIu32 ",\"shard\":%" PRIu32
            ",\"round\":%" PRIu32 ",\"size\":%" PRIu64
            ",\"detail\":%" PRIu64 "}}",
            to_string(kind), host_tid, us(ev.t_ns), ev.thread_rank, ev.block,
            ev.kernel_seq, ev.size, ev.offset);
        break;
      case EventKind::kRetrySuccess:
      case EventKind::kFallbackAlloc:
      case EventKind::kFallbackFree:
      case EventKind::kBreakerTrip:
      case EventKind::kBreakerReset:
      case EventKind::kUnrecovered:
      case EventKind::kAggModeAggregated:
      case EventKind::kAggModePassthrough:
      case EventKind::kAggSlabRefill:
      case EventKind::kHostCarve:
      case EventKind::kHostCoalesce:
      case EventKind::kHostStreamSync:
      case EventKind::kHostTrim:
        // Lane markers from the "+R", "+W" and host-placement layers:
        // thread-scoped instants on the SM that marked, with the size and
        // the kind-specific detail (EventKind documents both) as args.
        f.printf(
            ",\n{\"ph\":\"i\",\"name\":\"%s\",\"s\":\"t\","
            "\"cat\":\"%s\",\"pid\":0,\"tid\":%u,\"ts\":%.3f,"
            "\"args\":{\"rank\":%" PRIu32 ",\"size\":%" PRIu64
            ",\"detail\":%" PRIu64 "}}",
            to_string(kind), marker_category(kind),
            static_cast<unsigned>(ev.smid), us(ev.t_ns), ev.thread_rank,
            ev.size, ev.offset);
        break;
    }
  }
  f.printf("\n]}\n");
  f.close();
}

void write_occupancy_csv(const std::string& path, const Trace& trace) {
  File f(path);
  f.printf(
      "t_ns,kernel,kind,rank,size,offset,live_allocs,live_bytes,"
      "extent_bytes,utilization\n");

  // Ordered by offset so the live set's high-water end is its last element.
  std::map<std::uint64_t, std::uint64_t> live;  // offset -> size
  std::uint64_t live_bytes = 0;

  for (const auto& ev : trace.events) {
    const auto kind = ev.event_kind();
    if (!is_alloc_event(kind)) continue;
    const bool in_arena =
        ev.offset != kNullOffset && (ev.offset & kForeignOffsetFlag) == 0;
    if (kind == EventKind::kMalloc || kind == EventKind::kWarpMalloc) {
      if (in_arena) {
        auto [it, fresh] = live.try_emplace(ev.offset, ev.size);
        if (fresh) {
          live_bytes += ev.size;
        } else {
          // Offset reuse without a recorded free (lost to ring overflow):
          // replace the stale block.
          live_bytes += ev.size - it->second;
          it->second = ev.size;
        }
      }
    } else if (kind == EventKind::kFree && in_arena) {
      if (auto it = live.find(ev.offset); it != live.end()) {
        live_bytes -= it->second;
        live.erase(it);
      }
    }
    // warp_free_all has no per-block offsets; it only shows as an event row.
    const std::uint64_t extent =
        live.empty() ? 0 : live.rbegin()->first + live.rbegin()->second;
    f.printf("%" PRIu64 ",%" PRIu32 ",%s,%" PRIu32 ",%" PRIu64 ",%" PRIu64
             ",%zu,%" PRIu64 ",%" PRIu64 ",%.6f\n",
             ev.t_ns, ev.kernel_seq, to_string(kind), ev.thread_rank, ev.size,
             ev.offset, live.size(), live_bytes, extent,
             extent == 0 ? 1.0
                         : static_cast<double>(live_bytes) /
                               static_cast<double>(extent));
  }
  f.close();
}

}  // namespace gms::trace
