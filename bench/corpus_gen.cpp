// Seeds the adversarial regression corpus (results/corpus/) with hand-built
// .gmtrace files targeting the request patterns that historically break GPU
// allocators: size-class boundary straddles, cross-warp free storms,
// fragment-then-huge sequences, deep churn bursts, null/zero-size edge-case
// storms, and an exhaustion wave. Each trace is synthesized directly in the
// .gmtrace event format (no capture run needed, so the corpus is stable
// across scheduler changes), then PROBED in a fork-contained replay cell to
// measure the verdict the committed manifest pins — `bench_replay --corpus`
// fails CI when any entry drifts from that recorded verdict.
//
//   corpus_gen --corpus results/corpus [--sms N]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "trace/corpus.h"
#include "trace/trace_format.h"
#include "trace/trace_replay.h"

namespace {

using namespace gms;

/// Assembles a synthetic trace event-by-event, tracking the per-lane op
/// ordinals and fake (but internally consistent) arena offsets the replayer
/// links frees through. Offsets never repeat, so every free pairs with
/// exactly the malloc that produced it.
class TraceBuilder {
 public:
  TraceBuilder(std::size_t heap_bytes, unsigned num_sms) {
    header_.heap_bytes = heap_bytes;
    header_.arena_bytes = heap_bytes + core::kArenaSlackBytes;
    header_.num_sms = num_sms;
    header_.warp_size = 32;
    header_.set_allocator("corpus_gen");
  }

  void begin_kernel(std::uint32_t threads, std::uint32_t block_dim = 256) {
    ++kernel_;
    lane_ops_.assign(threads, 0);
    const std::uint64_t grid = (threads + block_dim - 1) / block_dim;
    push_marker(trace::EventKind::kKernelBegin, grid << 32 | block_dim);
  }

  void end_kernel() { push_marker(trace::EventKind::kKernelEnd, 0); }

  /// Records a successful malloc; returns the synthetic offset to free with.
  std::uint64_t malloc_op(std::uint32_t rank, std::uint64_t size) {
    const std::uint64_t off = next_off_;
    next_off_ += core::round_up(size == 0 ? 1 : size, 16) + 64;
    push_alloc(trace::EventKind::kMalloc, rank, size, off);
    return off;
  }

  void free_op(std::uint32_t rank, std::uint64_t off) {
    push_alloc(trace::EventKind::kFree, rank, 0, off);
  }

  void free_null(std::uint32_t rank) {
    push_alloc(trace::EventKind::kFree, rank, 0, trace::kNullOffset);
  }

  [[nodiscard]] trace::Trace finish() {
    header_.event_count = events_.size();
    header_.kernel_launches = kernel_;
    return trace::Trace{header_, std::move(events_)};
  }

 private:
  void push_alloc(trace::EventKind kind, std::uint32_t rank,
                  std::uint64_t size, std::uint64_t off) {
    trace::TraceEvent ev;
    ev.seq = seq_++;
    ev.t_ns = seq_ * 100;
    ev.size = size;
    ev.offset = off;
    ev.thread_rank = rank;
    ev.block = rank / 256;
    ev.kernel_seq = kernel_;
    ev.lane_op = lane_ops_[rank]++;
    ev.kind = static_cast<std::uint8_t>(kind);
    ev.smid = static_cast<std::uint8_t>((rank / 256) % header_.num_sms);
    ev.lane = static_cast<std::uint8_t>(rank % 32);
    ev.warp = static_cast<std::uint8_t>((rank / 32) % 8);
    events_.push_back(ev);
  }

  void push_marker(trace::EventKind kind, std::uint64_t size) {
    trace::TraceEvent ev;
    ev.seq = seq_++;
    ev.t_ns = seq_ * 100;
    ev.size = size;
    ev.kernel_seq = kernel_;
    ev.kind = static_cast<std::uint8_t>(kind);
    events_.push_back(ev);
  }

  trace::TraceHeader header_;
  std::vector<trace::TraceEvent> events_;
  std::vector<std::uint32_t> lane_ops_;
  std::uint64_t seq_ = 0;
  std::uint64_t next_off_ = 4096;
  std::uint32_t kernel_ = 0;
};

constexpr std::uint32_t kThreads = 256;

/// Mallocs that hug both sides of every size-class boundary (the paper's
/// geometric 16B..512KB ladder), churned so coalescing/rounding bugs at the
/// class edges get exercised in both directions.
trace::Trace straddle(std::size_t heap) {
  TraceBuilder b(heap, 4);
  b.begin_kernel(kThreads);
  for (unsigned round = 0; round < 3; ++round) {
    for (std::uint32_t r = 0; r < kThreads; ++r) {
      std::vector<std::uint64_t> offs;
      for (std::uint64_t cls = 16; cls <= 4096; cls *= 2) {
        offs.push_back(b.malloc_op(r, cls - 1));
        offs.push_back(b.malloc_op(r, cls));
        offs.push_back(b.malloc_op(r, cls + 1));
      }
      // Free in reverse: the +1 straddler (next class up) releases first.
      for (auto it = offs.rbegin(); it != offs.rend(); ++it) {
        b.free_op(r, *it);
      }
    }
  }
  b.end_kernel();
  return b.finish();
}

/// Every lane allocates, then frees a block allocated by a lane 32 ranks
/// away — each free crosses a warp boundary, so the replayer's recorded
/// free-before-malloc hazards and the allocator's remote-free paths both
/// light up at once.
trace::Trace free_storm(std::size_t heap) {
  TraceBuilder b(heap, 4);
  b.begin_kernel(kThreads);
  for (unsigned round = 0; round < 8; ++round) {
    std::vector<std::uint64_t> offs(kThreads);
    for (std::uint32_t r = 0; r < kThreads; ++r) {
      offs[r] = b.malloc_op(r, 64 + (round % 4) * 64);
    }
    for (std::uint32_t r = 0; r < kThreads; ++r) {
      b.free_op(r, offs[(r + 32) % kThreads]);
    }
  }
  b.end_kernel();
  return b.finish();
}

/// Fragmentation then a huge request: fill with small blocks, punch holes by
/// freeing every other one, then demand blocks far larger than any hole.
trace::Trace frag_then_huge(std::size_t heap) {
  TraceBuilder b(heap, 4);
  b.begin_kernel(kThreads);
  std::vector<std::uint64_t> offs;
  for (std::uint32_t r = 0; r < kThreads; ++r) {
    for (unsigned i = 0; i < 16; ++i) {
      offs.push_back(b.malloc_op(r, 128));
    }
  }
  for (std::size_t i = 0; i < offs.size(); i += 2) {
    b.free_op(static_cast<std::uint32_t>((i / 16) % kThreads), offs[i]);
  }
  b.end_kernel();
  b.begin_kernel(8);
  for (std::uint32_t r = 0; r < 8; ++r) {
    const auto off = b.malloc_op(r, 64 * 1024);
    b.free_op(r, off);
  }
  b.end_kernel();
  return b.finish();
}

/// Deep malloc/free churn with rotating sizes — the steady-state stress that
/// exposed Ouroboros's bounded-queue page leaks (EXPERIMENTS.md).
trace::Trace churn_burst(std::size_t heap) {
  TraceBuilder b(heap, 4);
  static constexpr std::uint64_t kSizes[6] = {16, 48, 256, 512, 1024, 2048};
  b.begin_kernel(kThreads);
  for (unsigned round = 0; round < 24; ++round) {
    for (std::uint32_t r = 0; r < kThreads; ++r) {
      const auto off = b.malloc_op(r, kSizes[(round + r) % 6]);
      b.free_op(r, off);
    }
  }
  b.end_kernel();
  return b.finish();
}

/// The well-defined-edge-case storm: free(nullptr) floods interleaved with
/// zero-byte and one-byte allocations — the calls ISSUE 6's conformance
/// contract requires every manager (and the reserve fallback) to absorb.
trace::Trace null_zero_storm(std::size_t heap) {
  TraceBuilder b(heap, 4);
  b.begin_kernel(kThreads);
  for (unsigned round = 0; round < 8; ++round) {
    for (std::uint32_t r = 0; r < kThreads; ++r) {
      b.free_null(r);
      const auto z = b.malloc_op(r, 0);
      b.free_null(r);
      const auto one = b.malloc_op(r, 1);
      b.free_op(r, z);
      b.free_op(r, one);
      b.free_null(r);
    }
  }
  b.end_kernel();
  return b.finish();
}

/// Multi-tenant quota-exhaustion wave: rank groups stand in for tenants (64
/// ranks each, the AllocService convention of tenant-major rank blocks).
/// Tenant 0 floods — repeated 16KB bursts at quota-exhaustion scale, held
/// live across the burst and only released at round end — while the other
/// three tenants run small steady malloc/free pairs that must complete
/// unaffected. The service sheds this flood at admission (test_service's
/// token-bucket case); this seed pins the allocator-level interleave
/// underneath the shed: the flood's live set fits the heap, so any verdict
/// other than ok means the burst pattern itself broke the manager.
trace::Trace quota_wave(std::size_t heap) {
  TraceBuilder b(heap, 4);
  constexpr std::uint32_t kTenantLanes = 64;  // 4 tenants x 64 ranks
  b.begin_kernel(kThreads);
  for (unsigned round = 0; round < 6; ++round) {
    std::vector<std::uint64_t> flood;
    for (unsigned burst = 0; burst < 8; ++burst) {
      for (std::uint32_t r = 0; r < kTenantLanes; ++r) {
        flood.push_back(b.malloc_op(r, 16 * 1024));  // tenant 0: the flood
      }
      for (std::uint32_t r = kTenantLanes; r < kThreads; ++r) {
        const auto off = b.malloc_op(r, 64 + (burst % 4) * 32);
        b.free_op(r, off);  // tenants 1-3: unaffected steady churn
      }
    }
    for (std::size_t i = 0; i < flood.size(); ++i) {
      b.free_op(static_cast<std::uint32_t>(i % kTenantLanes), flood[i]);
    }
  }
  b.end_kernel();
  return b.finish();
}

/// Host-based extent fragmentation: carve/coalesce churn aimed at the
/// hostalloc family's free-extent map. Each round carves runs of varied
/// sizes, punches alternating holes (so the host map fills with
/// non-adjacent free extents), then demands blocks larger than any single
/// hole — satisfiable only once neighbouring holes coalesce on free. The
/// round then drains completely, so best-fit split bookkeeping, buddy
/// merge chains, and StreamPool deferred-list drains all run back to a
/// single spanning extent before the next round re-fragments.
trace::Trace extent_frag(std::size_t heap) {
  TraceBuilder b(heap, 4);
  b.begin_kernel(kThreads);
  for (unsigned round = 0; round < 4; ++round) {
    // Carve: varied sizes so the extent map holds mixed-width extents.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> carved;
    for (std::uint32_t r = 0; r < kThreads; ++r) {
      for (unsigned i = 0; i < 8; ++i) {
        const std::uint64_t size = 96 + ((i + round) % 5) * 160;
        carved.emplace_back(r, b.malloc_op(r, size));
      }
    }
    // Punch: free every other carve, leaving alternating live/free holes.
    for (std::size_t i = 1; i < carved.size(); i += 2) {
      b.free_op(carved[i].first, carved[i].second);
    }
    // Re-carve: blocks wider than any punched hole, forcing the allocator
    // to place them in still-contiguous space or coalesced spans.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> wide;
    for (std::uint32_t r = 0; r < kThreads; ++r) {
      wide.emplace_back(r, b.malloc_op(r, 2048 + (round % 3) * 1024));
    }
    // Drain: release the surviving evens, then the wide blocks, so every
    // coalesce path (left, right, both neighbours) fires before the next
    // round starts from one spanning extent.
    for (std::size_t i = 0; i < carved.size(); i += 2) {
      b.free_op(carved[i].first, carved[i].second);
    }
    for (const auto& [r, off] : wide) {
      b.free_op(r, off);
    }
  }
  b.end_kernel();
  return b.finish();
}

/// Exhaustion wave over a deliberately small heap: no frees, demand well
/// past capacity. The pinned verdict is oom — the one corpus entry whose
/// expected verdict is a *failure*, proving the sweep detects drift in both
/// directions (a manager that suddenly "recovers" here is lying).
trace::Trace oom_wave() {
  TraceBuilder b(/*heap=*/8u << 20, 4);
  b.begin_kernel(kThreads);
  for (unsigned round = 0; round < 4; ++round) {
    for (std::uint32_t r = 0; r < kThreads; ++r) {
      (void)b.malloc_op(r, 16 * 1024);  // 4 rounds x 256 x 16KB = 2x heap
    }
  }
  b.end_kernel();
  return b.finish();
}

struct Seed {
  const char* file;
  trace::Trace trace;
  std::string stack;
  const char* note;
};

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::parse_args(argc, argv);
  const std::string dir =
      args.corpus.empty() ? "results/corpus" : args.corpus;
  const std::size_t heap = 64u << 20;

  // Stacks spread across the allocator families so the sweep touches the
  // hashed, queue-based and bulk designs; every entry runs under the "+R"
  // recovery layer except oom_wave, which pins raw exhaustion behaviour.
  std::vector<Seed> seeds;
  seeds.push_back({"straddle.gmtrace", straddle(heap),
                   "resilient>validate>ScatterAlloc",
                   "size-class boundary straddles, both directions"});
  seeds.push_back({"free_storm.gmtrace", free_storm(heap),
                   "resilient>validate>Halloc",
                   "cross-warp free storm (every free crosses a warp)"});
  seeds.push_back({"frag_then_huge.gmtrace", frag_then_huge(heap),
                   "resilient>validate>Ouro-P-VA",
                   "fragment with holes, then huge requests"});
  seeds.push_back({"churn_burst.gmtrace", churn_burst(heap),
                   "resilient>validate>Ouro-P-S",
                   "deep rotating-size churn (Ouroboros queue stress)"});
  seeds.push_back({"null_zero_storm.gmtrace", null_zero_storm(heap),
                   "resilient>validate>XMalloc",
                   "free(nullptr) + zero/one-byte allocation storm"});
  // The quota wave is pinned twice — bare and "+R" — because the service
  // path (ISSUE 8) runs tenants over both kinds of stack and the flood
  // interleave must stay clean under each.
  seeds.push_back({"quota_wave.gmtrace", quota_wave(heap),
                   "validate>ScatterAlloc",
                   "multi-tenant quota-exhaustion flood, bare stack"});
  seeds.push_back({"quota_wave_resilient.gmtrace", quota_wave(heap),
                   "resilient>validate>ScatterAlloc",
                   "multi-tenant quota-exhaustion flood under +R"});
  // The extent-fragmentation churn is pinned on two host-based stacks: the
  // bare "+V" extent map (carve/coalesce accounting under the validator)
  // and the stream-ordered pool under "+R", whose deferred free lists turn
  // every drain phase into a reclaim-at-sync stress.
  seeds.push_back({"extent_frag.gmtrace", extent_frag(heap),
                   "validate>HostExtent",
                   "host-based extent carve/coalesce churn"});
  seeds.push_back({"extent_frag_stream.gmtrace", extent_frag(heap),
                   "resilient>validate>StreamPool",
                   "extent churn over stream-ordered deferred reclaim"});
  seeds.push_back({"oom_wave.gmtrace", oom_wave(), "validate>ScatterAlloc",
                   "exhaustion wave, 2x heap demand, no frees"});
  seeds.push_back({"oom_wave_resilient.gmtrace", oom_wave(),
                   "resilient>ScatterAlloc",
                   "exhaustion wave under +R: reserve must also run dry"});

  core::SurveyRunner runner({.deadline_s = args.deadline_s,
                             .rlimit_mb = args.rlimit_mb,
                             .persist_quarantine = false});

  bool ok = true;
  for (auto& seed : seeds) {
    const std::string path = dir + "/" + seed.file;
    trace::write_trace(path, seed.trace.header, seed.trace.events);
    // Pin the verdict by measurement, not by guess: probe the entry exactly
    // the way the CI sweep will replay it.
    const auto verdict = runner.probe_cell([&]() -> core::CellOutcome {
      return trace::replay_verdict_cell(
                 seed.trace, core::StackSpec::parse(seed.stack), args.num_sms)
          .outcome;
    });
    trace::CorpusEntry entry;
    entry.file = seed.file;
    entry.stack = seed.stack;
    entry.expected = verdict;
    entry.source = "handbuilt";
    entry.note = seed.note;
    const auto n = trace::corpus_add(dir, entry);
    std::cout << seed.file << ": " << seed.trace.events.size()
              << " events, stack " << seed.stack << ", verdict "
              << core::to_string(verdict) << " (corpus size " << n << ")\n";
    // The generator's own sanity gate: hand-built traces must replay clean
    // under recovery, and the exhaustion wave must actually exhaust.
    const bool expect_oom =
        std::string(seed.file).rfind("oom_wave", 0) == 0;
    if (expect_oom != (verdict == core::Verdict::kOom)) ok = false;
    if (!expect_oom && verdict != core::Verdict::kOk) ok = false;
  }
  if (!ok) {
    std::cerr << "FAIL: a hand-built corpus entry produced an unexpected "
                 "verdict class\n";
    return 1;
  }
  std::cout << "corpus seeded at " << dir << "\n";
  return 0;
}
