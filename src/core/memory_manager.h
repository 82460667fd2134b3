#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "gpu/thread_ctx.h"

namespace gms::core {

/// Result of a host-side heap-integrity audit (MemoryManager::audit()). The
/// survey runner invokes the audit after every kernel — including kernels the
/// watchdog cancelled mid-malloc — so "the heap survived" is a checked
/// invariant rather than an assumption. An audit distinguishes *corruption*
/// (broken links, impossible counters, overwritten canaries) from mere
/// *loss* (pages a cancelled lane never returned), which is bounded leakage
/// and must NOT fail the audit: a killed CUDA kernel legitimately leaks.
struct AuditResult {
  bool supported = false;  ///< false: the manager has no introspection
  bool ok = true;          ///< false: structural corruption was found
  std::uint64_t structures_walked = 0;  ///< blocks/pages/chunks examined
  std::uint64_t failures = 0;           ///< invariants found violated
  std::string detail;                   ///< first failure, human-readable

  /// Folds another audit (e.g. a decorator's inner manager) into this one.
  AuditResult& merge(const AuditResult& other) {
    supported |= other.supported;
    structures_walked += other.structures_walked;
    failures += other.failures;
    if (!other.ok) {
      ok = false;
      if (detail.empty()) detail = other.detail;
    }
    return *this;
  }

  [[nodiscard]] std::string to_string() const {
    if (!supported) return "audit: unsupported";
    std::string s = ok ? "audit: ok" : "audit: CORRUPT";
    s += " (" + std::to_string(structures_walked) + " structures";
    if (failures > 0) s += ", " + std::to_string(failures) + " violations";
    s += ")";
    if (!detail.empty()) s += " " + detail;
    return s;
  }
};

/// Capability metadata for one allocator — the machine-readable form of the
/// paper's Table 1, printed by `bench_table1` and used by the harness to skip
/// incompatible test cases (e.g. FDGMalloc in general-purpose sweeps).
struct AllocatorTraits {
  std::string_view name;       ///< variant name used on the CLI ("Ouro-P-VA")
  std::string_view family;     ///< approach family ("Ouroboros")
  std::string_view paper_ref;  ///< citation in the survey ("[21], ICS'20")
  int year = 0;

  bool general_purpose = true;   ///< arbitrary malloc/free usable per thread
  bool warp_level_only = false;  ///< FDGMalloc: allocation only per warp
  bool supports_free = true;     ///< Atomic baseline: no deallocation at all
  bool individual_free = true;   ///< FDGMalloc: only frees a warp's entire heap
  /// FDGMalloc shape: warp_free_all reclaims every outstanding allocation in
  /// bulk. With this bit (and no individual_free) the "+W" aggregation layer
  /// drops per-block refcounting entirely — header-free slabs whose backing
  /// blocks are swept wholesale instead of freed one lane at a time.
  bool bulk_free_capable = false;
  /// Requests above this size are relayed to the system (CUDA) allocator
  /// stand-in (Halloc > 3 KiB, FDGMalloc > max superblock, Ouroboros > largest
  /// page), or rejected if no relay exists.
  std::size_t max_direct_size = std::numeric_limits<std::size_t>::max();
  bool relays_large_to_system = false;
  bool resizable = false;  ///< manageable memory growable at runtime
  /// Safe under independent thread scheduling (paper: only CUDA-Allocator and
  /// Ouroboros); the others need warp-synchronous execution, which the
  /// simulator provides just as `compute_60` did for the authors.
  bool its_safe = false;
  bool stable = true;  ///< paper-reported stability across the test suite
  /// True for managers beyond the paper's evaluated population (e.g. our
  /// BulkAllocator rebuild — §2.9 had no public version to test). Extensions
  /// join tests and benches but are excluded from paper-population checks.
  bool extension = false;
  /// True for registered managers that stay out of Registry::names() and
  /// the "all" selector: the hostile survey stubs (core/stub_allocators.h),
  /// which join a sweep only when named explicitly. No stack stage sets it.
  bool decorated = false;
  /// True for the host-based family (src/hostalloc): placement is planned on
  /// the host and the device only consumes — the survey column the paper's
  /// device-side population omits. Benches report it as the "placement"
  /// dimension of every table.
  bool host_based = false;

  /// §4.1 resource-footprint proxy: the paper reports register counts, which
  /// have no host equivalent; we document the per-call live-state footprint
  /// (in bytes) of the reimplementation's hot path, preserving the ranking.
  unsigned malloc_state_bytes = 0;
  unsigned free_state_bytes = 0;
};

/// The unified malloc/free interface of the survey framework (§3): every
/// manager is constructed on the host with a configurable slice of manageable
/// memory and is then called from device kernels. Swapping one registry name
/// swaps the allocator under an unchanged application — the paper's central
/// usability claim.
///
/// Thread-safety: malloc/free/warp_malloc are called concurrently from many
/// simulated lanes and must be lock-free in the algorithm-specific way each
/// paper describes. Host-side construction/destruction is single-threaded.
class MemoryManager {
 public:
  virtual ~MemoryManager() = default;

  [[nodiscard]] virtual const AllocatorTraits& traits() const = 0;

  /// Allocates `size` bytes for the calling lane; nullptr on out-of-memory.
  [[nodiscard]] virtual void* malloc(gpu::ThreadCtx& ctx, std::size_t size) = 0;

  /// Returns an allocation. Passing nullptr is a no-op.
  virtual void free(gpu::ThreadCtx& ctx, void* ptr) = 0;

  /// Warp-cooperative allocation: lanes of the caller's coalesced group each
  /// receive `size` bytes. Default forwards to the per-thread path; FDGMalloc
  /// overrides this with its leader-voting scheme.
  [[nodiscard]] virtual void* warp_malloc(gpu::ThreadCtx& ctx,
                                          std::size_t size) {
    return malloc(ctx, size);
  }

  /// Releases everything the calling warp ever allocated (FDGMalloc's only
  /// free mechanism). No-op for managers with individual free.
  virtual void warp_free_all(gpu::ThreadCtx& /*ctx*/) {}

  /// Host-side heap-integrity audit: walks the manager's own metadata (free
  /// lists, page bitfields, chunk counters, block headers) and reports
  /// structural corruption. Quiescent only — call between launches, never
  /// while kernels run. The default is a supported=false no-op so managers
  /// without introspection still compose with the survey runner; real
  /// implementations exist for ListHeap-backed managers (XMalloc),
  /// ScatterAlloc, Ouroboros, and the validate stage ("+V"). Must tolerate
  /// the torn-but-sound state a watchdog-cancelled kernel leaves behind
  /// (lost pages are leaks, not corruption).
  [[nodiscard]] virtual AuditResult audit() { return {}; }

  /// Host-side: time spent in the constructor carving up the arena.
  [[nodiscard]] double init_ms() const { return init_ms_; }

 protected:
  double init_ms_ = 0.0;
};

}  // namespace gms::core
