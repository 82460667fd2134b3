#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// In-memory span log of a traced run: one span per boundary the benchmark
/// crosses (workload, cell, StackBuilder::build, phase, and each call into
/// Device::launch, TraceReplayer::replay, AllocService::run_until_drained,
/// work::run_* or MemoryManager::audit). Spans nest on the one host thread
/// that drives the benchmark, so a span's parent is the innermost span open
/// when it starts. Disabled, every call is a branch on one bool.
class Spans {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Spans* owner, int index) : owner_(owner), index_(index) {}
    ~Scope() {
      if (owner_ != nullptr) owner_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_;
    int index_;
  };

  /// Opens a span named `layer.name`. `layer` is the src/ module whose
  /// public function is being called ("gpu", "core", "trace", ...), or
  /// "bench" for the benchmark's own structure.
  [[nodiscard]] Scope open(std::string_view layer, std::string_view name);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Seconds per layer that no child span covers: each span's duration
  /// minus its direct children's.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Span count per "layer.name".
  [[nodiscard]] std::map<std::string, std::uint64_t> calls() const;

  /// Writes every span as a Chrome trace-event "X" record (load the file in
  /// chrome://tracing or Perfetto); the parent index rides in args.
  void write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string layer, name;
    std::int64_t start_ns = 0, end_ns = 0;
    int parent = -1;
  };

  void close(int index);
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace perfbench
