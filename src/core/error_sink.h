#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "gpu/thread_ctx.h"

namespace gms::core {

/// What the ValidatingManager caught. The survey's Table 1 "stable" column is
/// a boolean over exactly these failure modes; the sink makes each one
/// attributable to an allocator, a lane and a size instead of a crash.
enum class ErrorKind : std::uint8_t {
  kDoubleFree,     ///< free of an already-freed allocation
  kForeignFree,    ///< free of a pointer this manager never handed out
  kUnalignedFree,  ///< pointer into the heap but not an allocation start
  kOutOfHeap,      ///< malloc returned memory outside the managed heap
  kOverlap,        ///< malloc returned memory overlapping a live allocation
  kRedzone,        ///< canary before/after the payload was overwritten
  kLeak,           ///< allocation still live at end-of-run leak check
  kCount,
};

[[nodiscard]] constexpr const char* to_string(ErrorKind k) {
  switch (k) {
    case ErrorKind::kDoubleFree: return "double-free";
    case ErrorKind::kForeignFree: return "foreign-free";
    case ErrorKind::kUnalignedFree: return "unaligned-free";
    case ErrorKind::kOutOfHeap: return "out-of-heap";
    case ErrorKind::kOverlap: return "overlap";
    case ErrorKind::kRedzone: return "redzone";
    case ErrorKind::kLeak: return "leak";
    case ErrorKind::kCount: break;
  }
  return "?";
}

/// One captured validation error: which lane, which allocation.
struct ErrorRecord {
  ErrorKind kind = ErrorKind::kCount;
  std::uint8_t smid = 0;
  std::uint32_t thread_rank = 0;
  std::uint64_t size = 0;    ///< payload bytes of the offending allocation
  std::uint64_t offset = 0;  ///< payload offset from the heap base
};

/// Host-side summary drained out of the sink, the validator's counterpart of
/// LaunchStats: per-kind totals plus the first captured records.
struct LaunchReport {
  std::string allocator;  ///< inner manager the validator wrapped
  std::array<std::uint64_t, static_cast<std::size_t>(ErrorKind::kCount)>
      counts{};
  std::vector<ErrorRecord> records;  ///< first N, ring capacity per SM
  std::uint64_t dropped = 0;         ///< errors beyond the ring capacity
  std::uint64_t live_allocations = 0;

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto c : counts) t += c;
    return t;
  }
  [[nodiscard]] std::uint64_t count(ErrorKind k) const {
    return counts[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] bool clean() const { return total() == 0; }

  [[nodiscard]] std::string to_string() const {
    std::string s = "[" + allocator + "] ";
    if (clean()) return s + "validation clean";
    s += std::to_string(total()) + " validation error(s):";
    for (std::size_t k = 0; k < counts.size(); ++k) {
      if (counts[k] == 0) continue;
      s += " " + std::string(core::to_string(static_cast<ErrorKind>(k))) +
           "=" + std::to_string(counts[k]);
    }
    for (const auto& r : records) {
      s += "\n  " + std::string(core::to_string(r.kind)) + ": thread " +
           std::to_string(r.thread_rank) + " on SM " +
           std::to_string(r.smid) + ", size " + std::to_string(r.size) +
           " B @ heap+" + std::to_string(r.offset);
    }
    if (dropped > 0) s += "\n  (+" + std::to_string(dropped) + " dropped)";
    return s;
  }
};

/// Structured device-side error channel: one fixed-capacity ring per SM, so
/// recording an error is two relaxed atomics on SM-local state and never
/// serialises lanes across SMs — the same aggregation shape StatsCounters
/// uses for its per-SM counters. Errors are never fatal on the device; the
/// host drains them into a LaunchReport after the kernels of interest ran.
class DeviceErrorSink {
 public:
  explicit DeviceErrorSink(unsigned num_sms, unsigned ring_capacity = 64)
      : rings_(num_sms), capacity_(ring_capacity) {
    for (auto& ring : rings_) ring.slots.resize(capacity_);
  }

  /// Device-side: records into the calling SM's ring.
  void record(gpu::ThreadCtx& ctx, ErrorKind kind, std::uint64_t size,
              std::uint64_t offset) {
    push(ctx.smid(), kind,
         ErrorRecord{kind, static_cast<std::uint8_t>(ctx.smid()),
                     ctx.thread_rank(), size, offset});
  }

  /// Host-side (leak scans, end-of-run redzone sweeps): records into ring 0.
  void record_host(ErrorKind kind, std::uint32_t thread_rank,
                   std::uint64_t size, std::uint64_t offset) {
    push(0, kind, ErrorRecord{kind, 0, thread_rank, size, offset});
  }

  [[nodiscard]] std::uint64_t total() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// Drains counts and records into a report and resets the sink. Host-side
  /// only; must not race device kernels.
  LaunchReport drain(std::string allocator_name) {
    LaunchReport report;
    report.allocator = std::move(allocator_name);
    for (std::size_t k = 0; k < report.counts.size(); ++k) {
      report.counts[k] = counts_[k].exchange(0, std::memory_order_relaxed);
    }
    for (auto& ring : rings_) {
      const std::uint64_t n =
          ring.next.exchange(0, std::memory_order_relaxed);
      const std::uint64_t kept = n < capacity_ ? n : capacity_;
      for (std::uint64_t i = 0; i < kept; ++i) {
        report.records.push_back(ring.slots[i]);
      }
      report.dropped += n - kept;
    }
    total_.store(0, std::memory_order_relaxed);
    return report;
  }

 private:
  struct Ring {
    std::atomic<std::uint64_t> next{0};
    std::vector<ErrorRecord> slots;
  };

  void push(unsigned smid, ErrorKind kind, const ErrorRecord& rec) {
    counts_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    Ring& ring = rings_[smid < rings_.size() ? smid : 0];
    const std::uint64_t idx =
        ring.next.fetch_add(1, std::memory_order_relaxed);
    if (idx < capacity_) ring.slots[idx] = rec;
  }

  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(ErrorKind::kCount)>
      counts_{};
  std::atomic<std::uint64_t> total_{0};
  std::vector<Ring> rings_;
  std::uint64_t capacity_;
};

}  // namespace gms::core
