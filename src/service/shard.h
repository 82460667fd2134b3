#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/stack_builder.h"
#include "core/survey_runner.h"
#include "service/tenant.h"

namespace gms::service {

/// Outcome of one batch execution on a shard. The verdict reuses the
/// survey taxonomy (DESIGN.md §8) so the health tracker consumes batch
/// outcomes and survey cells through one vocabulary; op-level failures
/// (failed mallocs) are NOT verdict failures — a correct device that ran
/// out of memory reports kOk with ops_failed > 0 (or kOom when nothing
/// could be served), and capacity problems shed rather than fail over.
struct BatchResult {
  core::Verdict verdict = core::Verdict::kOk;
  std::uint32_t ops_ok = 0;
  std::uint32_t ops_failed = 0;       ///< kernel-visible failed mallocs
  std::uint32_t orphaned_frees = 0;   ///< slot not found on this shard
  std::uint64_t bytes_allocated = 0;
  std::uint64_t bytes_freed = 0;
  double ms = 0;                      ///< submit-side wall clock
  std::string detail;
};

/// One device shard of the AllocService: a simulated GPU plus a manager
/// stack, executing stream-ordered batches. Two containment modes:
///
///  - in-process: the Device lives in the service process. Failures
///    surface as exceptions (LaunchTimeout -> timeout, bad_alloc -> oom,
///    anything else -> validation-error); a crash-grade failure cannot be
///    contained — which is exactly why the hostile/bench failover paths
///    use the forked mode.
///  - forked: an in-process shard behind a pipe. A fork()ed child builds
///    one from the same Options and answers each batch the parent sends
///    with that shard's execute() result. SIGKILLing the child is a REAL
///    mid-stream device loss: the parent classifies the dead pipe into a
///    crash verdict and the service re-shards the tenants — the survey
///    runner's containment model promoted from per-cell to per-device
///    lifetime.
///
/// Slot tables are shard-resident ((tenant, slot) -> payload): batches
/// routed to a shard resolve frees locally, so a failed-over tenant's
/// stale slots are absorbed as orphaned frees rather than dereferenced.
///
/// Threading: execute() is called by one service worker at a time; kill /
/// respawn / teardown happen on the coordinator between rounds. The class
/// itself is not thread-safe.
class DeviceShard {
 public:
  struct Options {
    std::string stack = "ScatterAlloc";  ///< StackBuilder spec per device
    std::size_t heap_bytes = 32u << 20;
    unsigned num_sms = 2;
    double watchdog_ms = 4000;
    bool forked = false;
    /// Forked mode: parent-side wall-clock deadline per batch before the
    /// child is declared hung and SIGKILLed (the survey deadline idiom).
    double batch_deadline_s = 10;
  };

  /// Shard-resident slot payload ((tenant, slot) -> live allocation).
  /// Public so the batch executor in shard.cpp can name it.
  struct SlotVal {
    void* ptr = nullptr;
    std::uint32_t size = 0;
  };

  DeviceShard(unsigned id, Options opts);
  ~DeviceShard();

  DeviceShard(const DeviceShard&) = delete;
  DeviceShard& operator=(const DeviceShard&) = delete;

  /// Executes one batch to completion (in-process launch or child
  /// round-trip). Never throws: every failure mode maps to a verdict.
  [[nodiscard]] BatchResult execute(const Batch& batch);

  /// Simulated device loss: SIGKILL the child (forked) or poison the
  /// in-process device so every subsequent batch reports a crash verdict.
  void kill();

  /// Revival attempt for a killed/crashed shard: re-fork a fresh child
  /// (forked) or rebuild the device + stack (in-process). The revived
  /// device is COLD — all slot state is gone, which the service accounts
  /// as lost bytes. Returns false when revival itself failed.
  bool respawn();

  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] unsigned id() const { return id_; }
  [[nodiscard]] std::uint64_t completed_batches() const {
    return completed_batches_;
  }

 private:
  void spawn_child();
  void reap_child(bool force_kill);
  [[nodiscard]] BatchResult execute_in_process(const Batch& batch);
  [[nodiscard]] BatchResult execute_forked(const Batch& batch);
  void build_in_process();

  unsigned id_;
  Options opts_;
  bool alive_ = false;
  bool poisoned_ = false;  ///< in-process kill(): simulated dead device
  std::uint64_t completed_batches_ = 0;

  // In-process mode (the forked child runs one of these too).
  std::unique_ptr<core::StackCell> cell_;
  std::unordered_map<std::uint64_t, SlotVal> slots_;

  // Forked mode.
  pid_t child_pid_ = -1;
  int req_fd_ = -1;  ///< parent write end
  int rsp_fd_ = -1;  ///< parent read end
};

}  // namespace gms::service
