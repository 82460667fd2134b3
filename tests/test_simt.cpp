#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/stack_builder.h"
#include "gpu/device.h"
#include "gpu/watchdog.h"

namespace gms::gpu {
namespace {

Device& dev() {
  static Device device(8u << 20, GpuConfig{.num_sms = 4});
  return device;
}

TEST(Simt, EveryThreadRunsExactlyOnce) {
  std::vector<std::uint32_t> hits(10'000, 0);
  dev().launch_n(hits.size(), [&](ThreadCtx& t) {
    t.atomic_add(&hits[t.thread_rank()], 1u);
  });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](std::uint32_t h) { return h == 1; }));
}

TEST(Simt, GeometryFieldsAreConsistent) {
  std::vector<std::uint32_t> fails(1, 0);
  dev().launch(7, 96, [&](ThreadCtx& t) {
    const bool ok = t.block_dim() == 96 && t.grid_dim() == 7 &&
                    t.lane_id() == (t.thread_rank() % 96) % 32 &&
                    t.lane_id() < kWarpSize &&
                    t.warp_in_block() == (t.thread_rank() % 96) / 32 &&
                    t.thread_rank() ==
                        t.block_idx() * 96 + t.warp_in_block() * 32 +
                            t.lane_id() &&
                    t.smid() < t.num_sms();
    if (!ok) t.atomic_add(&fails[0], 1u);
  });
  EXPECT_EQ(fails[0], 0u);
}

TEST(Simt, FullWarpBallot) {
  std::uint32_t out = 0;
  dev().launch(1, 32, [&](ThreadCtx& t) {
    const auto b = t.ballot(t.lane_id() < 7);
    if (t.lane_id() == 0) out = b;
  });
  EXPECT_EQ(out, 0x7Fu);
}

TEST(Simt, DivergentCoalescedGroups) {
  // Three-way divergence: each branch sees exactly its own members.
  std::uint32_t masks[3] = {0, 0, 0};
  dev().launch(1, 32, [&](ThreadCtx& t) {
    const unsigned which = t.lane_id() % 3;
    if (which == 0) {
      auto g = t.coalesce();
      if (g.is_leader()) masks[0] = g.mask;
    } else if (which == 1) {
      auto g = t.coalesce();
      if (g.is_leader()) masks[1] = g.mask;
    } else {
      auto g = t.coalesce();
      if (g.is_leader()) masks[2] = g.mask;
    }
  });
  std::uint32_t expect[3] = {0, 0, 0};
  for (unsigned lane = 0; lane < 32; ++lane) expect[lane % 3] |= 1u << lane;
  EXPECT_EQ(masks[0], expect[0]);
  EXPECT_EQ(masks[1], expect[1]);
  EXPECT_EQ(masks[2], expect[2]);
}

TEST(Simt, ShflBroadcastsLaneValue) {
  std::vector<std::uint32_t> out(32, 0);
  dev().launch(1, 32, [&](ThreadCtx& t) {
    out[t.lane_id()] = t.shfl(t.lane_id() * 10u, 5);
  });
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](std::uint32_t v) { return v == 50; }));
}

TEST(Simt, ReduceAndScan) {
  std::uint32_t sum = 0, mn = 0, mx = 0;
  std::vector<std::uint32_t> prefix(32);
  dev().launch(1, 32, [&](ThreadCtx& t) {
    const std::uint32_t v = t.lane_id() + 1;
    const auto s = t.reduce_add(v);
    const auto lo = t.reduce_min(v);
    const auto hi = t.reduce_max(v);
    prefix[t.lane_id()] = t.scan_exclusive_add(v);
    if (t.lane_id() == 0) {
      sum = s;
      mn = lo;
      mx = hi;
    }
  });
  EXPECT_EQ(sum, 528u);  // 1+..+32
  EXPECT_EQ(mn, 1u);
  EXPECT_EQ(mx, 32u);
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(prefix[i], i * (i + 1) / 2);
  }
}

TEST(Simt, ReduceAndOr) {
  std::uint32_t all_and = 0, all_or = 0;
  dev().launch(1, 32, [&](ThreadCtx& t) {
    const std::uint32_t v = 0xF0u | t.lane_id();
    const auto a = t.reduce_and(v);
    const auto o = t.reduce_or(v);
    if (t.lane_id() == 0) {
      all_and = a;
      all_or = o;
    }
  });
  EXPECT_EQ(all_and, 0xF0u);        // lane bits cancel out
  EXPECT_EQ(all_or, 0xF0u | 31u);   // all lane bits present
}

TEST(Simt, AggregatedAddSubGroupsByAddress) {
  // Lanes targeting different words must not be folded into one RMW —
  // hardware sub-groups with __match_any; so does the engine.
  std::uint32_t counters[4] = {0, 0, 0, 0};
  const auto stats = dev().launch(1, 32, [&](ThreadCtx& t) {
    t.aggregated_atomic_add(&counters[t.lane_id() % 4], 1u);
  });
  for (auto c : counters) EXPECT_EQ(c, 8u);
  EXPECT_EQ(stats.counters.atomic_rmw, 4u) << "one RMW per distinct address";
}

TEST(Simt, AggregatedAtomicAddIssuesOneRmwPerGroup) {
  std::uint32_t counter = 0;
  std::vector<std::uint32_t> tickets(64);
  const auto stats = dev().launch(1, 64, [&](ThreadCtx& t) {
    tickets[t.thread_rank()] = t.aggregated_atomic_add(&counter, 1u);
  });
  EXPECT_EQ(counter, 64u);
  // Two warps -> exactly two RMWs.
  EXPECT_EQ(stats.counters.atomic_rmw, 2u);
  // Tickets must be a permutation of 0..63.
  std::sort(tickets.begin(), tickets.end());
  for (unsigned i = 0; i < 64; ++i) EXPECT_EQ(tickets[i], i);
}

TEST(Simt, AggregatedAddWithDivergentGroup) {
  std::uint32_t counter = 100;
  std::vector<std::uint32_t> got(32, ~0u);
  dev().launch(1, 32, [&](ThreadCtx& t) {
    if (t.lane_id() % 4 == 0) {
      got[t.lane_id()] = t.aggregated_atomic_add(&counter, 3u);
    }
  });
  EXPECT_EQ(counter, 100 + 8 * 3);
  std::vector<std::uint32_t> participating;
  for (unsigned i = 0; i < 32; i += 4) participating.push_back(got[i]);
  std::sort(participating.begin(), participating.end());
  for (unsigned i = 0; i < participating.size(); ++i) {
    EXPECT_EQ(participating[i], 100 + 3 * i);
  }
}

TEST(Simt, BlockBarrierOrdersPhases) {
  constexpr unsigned kDim = 256;
  std::vector<std::uint32_t> stage1(kDim, 0);
  std::uint32_t violations = 0;
  dev().launch(1, kDim, [&](ThreadCtx& t) {
    stage1[t.thread_rank()] = t.thread_rank() + 1;
    t.sync_block();
    // After the barrier every sibling's stage-1 write must be visible.
    const unsigned peer = (t.thread_rank() + kDim / 2) % kDim;
    if (stage1[peer] != peer + 1) t.atomic_add(&violations, 1u);
  });
  EXPECT_EQ(violations, 0u);
}

TEST(Simt, BarrierWithEarlyExitLanes) {
  std::uint32_t after = 0;
  dev().launch(1, 64, [&](ThreadCtx& t) {
    if (t.thread_rank() % 2 == 0) return;  // half the block exits early
    t.sync_block();
    t.atomic_add(&after, 1u);
  });
  EXPECT_EQ(after, 32u);
}

TEST(Simt, SharedMemoryIsPerBlock) {
  std::vector<std::uint32_t> block_sums(8, 0);
  dev().launch(8, 64, [&](ThreadCtx& t) {
    auto* sh = reinterpret_cast<std::uint32_t*>(t.shared().data());
    t.atomic_add(&sh[0], 1u);
    t.sync_block();
    if (t.thread_rank() % 64 == 0) block_sums[t.block_idx()] = sh[0];
  }, 16);
  for (auto s : block_sums) EXPECT_EQ(s, 64u);
}

TEST(Simt, ContendedCasLoopCompletes) {
  std::uint64_t total = 0;
  dev().launch_n(20'000, [&](ThreadCtx& t) {
    for (;;) {
      const auto cur = t.atomic_load(&total);
      if (t.atomic_cas(&total, cur, cur + 1) == cur) break;
      t.backoff();
    }
  });
  EXPECT_EQ(total, 20'000u);
}

TEST(Simt, CasFailureCountersTrackContention) {
  std::uint64_t word = 0;
  const auto stats = dev().launch_n(4'096, [&](ThreadCtx& t) {
    for (;;) {
      const auto cur = t.atomic_load(&word);
      if (t.atomic_cas(&word, cur, cur + 1) == cur) break;
      t.backoff();
    }
  });
  EXPECT_GE(stats.counters.atomic_cas, 4'096u);
  EXPECT_EQ(stats.counters.atomic_cas - stats.counters.atomic_cas_failed,
            4'096u);
}

TEST(Simt, KernelExceptionPropagatesToHost) {
  EXPECT_THROW(
      dev().launch(1, 32, [&](ThreadCtx& t) {
        if (t.lane_id() == 13) throw std::runtime_error{"lane 13"};
      }),
      std::runtime_error);
}

TEST(Simt, MaskedBroadcastAfterCoalesce) {
  std::vector<std::uint64_t> got(32, 0);
  dev().launch(1, 32, [&](ThreadCtx& t) {
    if (t.lane_id() >= 8 && t.lane_id() < 24) {
      auto g = t.coalesce();
      const std::uint64_t mine = t.lane_id() * 100;
      got[t.lane_id()] = t.broadcast(g, mine, g.leader);
    }
  });
  for (unsigned i = 8; i < 24; ++i) EXPECT_EQ(got[i], 800u);
  EXPECT_EQ(got[0], 0u);
}

TEST(Simt, LargeGridManyBlocks) {
  std::uint64_t sum = 0;
  dev().launch_n(
      100'000, [&](ThreadCtx& t) { t.aggregated_atomic_add(&sum, std::uint64_t{1}); },
      128);
  EXPECT_EQ(sum, 100'000u);
}

TEST(Simt, GridWithNonWarpMultipleBlockDim) {
  std::uint32_t count = 0;
  dev().launch(3, 50, [&](ThreadCtx& t) { t.atomic_add(&count, 1u); });
  EXPECT_EQ(count, 150u);
}

TEST(Simt, StatsCountAtomics) {
  std::uint64_t x = 0;
  const auto stats = dev().launch(1, 32, [&](ThreadCtx& t) {
    t.atomic_add(&x, std::uint64_t{1});
    t.atomic_load(&x);
    t.atomic_store(&x, std::uint64_t{1});
  });
  EXPECT_EQ(stats.counters.atomic_rmw, 32u);
  EXPECT_EQ(stats.counters.atomic_load, 32u);
  EXPECT_EQ(stats.counters.atomic_store, 32u);
}

// ---- the scheduler contract, pinned ---------------------------------------
//
// Single-block kernels without contention schedule deterministically, so the
// order in which the engine resumes lanes shows up as exact counters. The
// constants below were cross-checked against the status-scan engine this
// scheduler replaced; a change to any of them is a change to the scheduling
// contract, not noise.

TEST(Simt, DivergentMaskedCollectives) {
  // Three-way divergence, then masked broadcast + group sync + ballot inside
  // each branch: the open and explicit-mask group paths of the resolver.
  std::vector<std::uint32_t> got(32, ~0u);
  std::uint32_t ballots[3] = {0, 0, 0};
  const auto stats = dev().launch(1, 32, [&](ThreadCtx& t) {
    const unsigned which = t.lane_id() % 3;
    if (which == 0) {
      auto g = t.coalesce();
      got[t.lane_id()] = t.broadcast(g, t.lane_id() * 10u, g.leader);
      t.sync_group(g);
      const auto b = t.ballot(true);
      if (g.is_leader()) ballots[0] = b;
    } else if (which == 1) {
      auto g = t.coalesce();
      got[t.lane_id()] = t.broadcast(g, t.lane_id() * 10u, g.leader);
      t.sync_group(g);
      const auto b = t.ballot(true);
      if (g.is_leader()) ballots[1] = b;
    } else {
      auto g = t.coalesce();
      got[t.lane_id()] = t.broadcast(g, t.lane_id() * 10u, g.leader);
      t.sync_group(g);
      const auto b = t.ballot(true);
      if (g.is_leader()) ballots[2] = b;
    }
  });
  std::uint32_t expect_mask[3] = {0, 0, 0};
  for (unsigned lane = 0; lane < 32; ++lane) {
    expect_mask[lane % 3] |= 1u << lane;
  }
  for (unsigned lane = 0; lane < 32; ++lane) {
    // Leaders are lanes 0, 1, 2; every member sees its leader's value.
    EXPECT_EQ(got[lane], (lane % 3) * 10u) << "lane " << lane;
  }
  for (unsigned b = 0; b < 3; ++b) EXPECT_EQ(ballots[b], expect_mask[b]);
  // Four collectives per branch; each lane is resumed once to start and
  // once per collective it parks at.
  EXPECT_EQ(stats.counters.collectives, 12u);
  EXPECT_EQ(stats.counters.lane_switches, 160u);
}

TEST(Simt, MixedBarrierCollectiveInterleaving) {
  // Alternating block barriers and warp collectives over multiple phases —
  // exercises barrier release racing collective parking.
  constexpr unsigned kDim = 128, kPhases = 8;
  std::vector<std::uint64_t> phase_sums(kPhases, 0);
  std::vector<std::uint32_t> prefix(kDim, 0);
  const auto stats = dev().launch(1, kDim, [&](ThreadCtx& t) {
    for (unsigned ph = 0; ph < kPhases; ++ph) {
      const auto s = t.reduce_add(std::uint64_t{t.lane_id() + ph});
      if (t.lane_id() == 0) {
        t.atomic_add(&phase_sums[ph], s);
      }
      t.sync_block();
      if (ph + 1 == kPhases) {
        prefix[t.thread_rank()] = t.scan_exclusive_add(1u);
      }
    }
  });
  for (unsigned ph = 0; ph < kPhases; ++ph) {
    // 4 warps, each contributing sum(0..31) + 32*ph.
    EXPECT_EQ(phase_sums[ph], 4u * (496u + 32u * ph));
  }
  for (unsigned r = 0; r < kDim; ++r) EXPECT_EQ(prefix[r], r % kWarpSize);
  // 4 warps x (8 reduces + 1 scan); each lane is resumed once to start and
  // once after each of its 17 parks.
  EXPECT_EQ(stats.counters.collectives, 36u);
  EXPECT_EQ(stats.counters.block_barriers, 8u);
  EXPECT_EQ(stats.counters.lane_switches, 2304u);
}

TEST(Simt, ConformanceChurn) {
  // The allocator conformance churn (alloc / write / verify / free rounds)
  // on the simulator's collectives and lane interleaving. Its managers take
  // 64 MiB heaps, more than dev()'s 8 MiB arena holds.
  core::register_all_allocators();
  Device local(96u << 20, GpuConfig{.num_sms = 4});
  for (const char* name : {"ScatterAlloc", "Halloc"}) {
    auto mgr = core::StackBuilder(local).build(name, 64u << 20).manager;
    ASSERT_NE(mgr, nullptr) << name;
    constexpr std::size_t kN = 2048, kWords = 8;
    for (unsigned round = 0; round < 3; ++round) {
      std::uint32_t corrupt = 0;
      local.launch_n(kN, [&](ThreadCtx& t) {
        auto* p =
            static_cast<std::uint32_t*>(mgr->malloc(t, kWords * 4));
        if (p == nullptr) {
          t.atomic_add(&corrupt, 1u);
          return;
        }
        for (unsigned w = 0; w < kWords; ++w) {
          p[w] = t.thread_rank() * 31 + w + round;
        }
        t.sync_warp();
        for (unsigned w = 0; w < kWords; ++w) {
          if (p[w] != t.thread_rank() * 31 + w + round) {
            t.atomic_add(&corrupt, 1u);
          }
        }
        mgr->free(t, p);
      });
      EXPECT_EQ(corrupt, 0u) << name << " round " << round;
    }
  }
}

TEST(Simt, MaskedCollectiveOnExitedLaneDiagnosed) {
  // A lane that exits while still a member of an explicit group is a
  // guaranteed deadlock: the scheduler must diagnose it (not hang), with
  // exactly this message, and leave the device usable.
  std::string what;
  try {
    dev().launch(1, 32, [&](ThreadCtx& t) {
      if (t.lane_id() >= 16) return;
      auto g = t.coalesce();
      if (t.lane_id() == 3) return;  // exits while g still names it
      (void)t.broadcast(g, t.lane_id(), g.leader);
    });
    FAIL() << "expected deadlock diagnosis";
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "SIMT deadlock: masked collective waits on an exited lane");
  // The stuck lanes were unwound; the device takes fresh launches.
  std::uint32_t count = 0;
  dev().launch(1, 64, [&](ThreadCtx& t) { t.atomic_add(&count, 1u); });
  EXPECT_EQ(count, 64u);
}

TEST(Simt, ReduceBarrierKernelCounters) {
  // Single block, no contention, no backoff: every lane parks at each
  // reduce and each barrier, so the counters fix the resume order.
  Device local(8u << 20, GpuConfig{.num_sms = 4});
  std::uint64_t sink = 0;
  const auto stats = local.launch(1, 256, [&](ThreadCtx& t) {
    std::uint64_t acc = t.lane_id();
    for (unsigned i = 0; i < 4; ++i) {
      acc += t.reduce_add(std::uint64_t{1});
      t.sync_block();
    }
    t.aggregated_atomic_add(&sink, acc);
  });
  EXPECT_EQ(sink, 36736u);  // sum over lanes of lane_id + 4 * 32
  // 8 warps x (4 reduces + 1 aggregated add) collectives, one RMW per warp;
  // each lane is resumed once to start and once after each of its 9 parks.
  EXPECT_EQ(stats.counters.collectives, 40u);
  EXPECT_EQ(stats.counters.block_barriers, 4u);
  EXPECT_EQ(stats.counters.atomic_rmw, 8u);
  EXPECT_EQ(stats.counters.lane_switches, 2560u);
  EXPECT_EQ(stats.counters.backoffs, 0u);
  // Lane stacks come from the per-SM pool on first suspension: all 256
  // lanes of the one block park at the barrier, so 256 stacks, no more.
  EXPECT_EQ(stats.counters.fibers_created, 256u);
}

TEST(Simt, RunToCompletionPoolsStacks) {
  // A kernel with no suspension points runs each lane to completion on its
  // first activation and chains into the next lane of the pass on the same
  // stack: the block costs one stack activation per chain, not one per lane,
  // and one pooled stack serves the whole block.
  Device local(1u << 20, GpuConfig{.num_sms = 4});
  const auto stats = local.launch(1, 256, [](ThreadCtx&) {});
  EXPECT_EQ(stats.counters.fibers_created, 1u);
}

TEST(Simt, ChainedLanesKeepResumeOrder) {
  // One 96-lane block at 1 SM. Per warp, lanes with lane_id % 3 == 0 return
  // at once, == 1 park at a ballot, == 2 back off twice and return. The
  // host-side log pins the order in which lanes start and end; the counters
  // pin how many activations and stacks that order takes.
  Device local(1u << 20, GpuConfig{.num_sms = 1});
  std::vector<unsigned> log;  // rank * 2, + 1 for the lane's end
  const auto stats = local.launch(1, 96, [&](ThreadCtx& t) {
    log.push_back(t.thread_rank() * 2);
    if (t.lane_id() % 3 == 1) {
      (void)t.ballot(true);
    } else if (t.lane_id() % 3 == 2) {
      t.backoff();
      t.backoff();
    }
    log.push_back(t.thread_rank() * 2 + 1);
  });
  std::vector<unsigned> expect;
  for (unsigned base = 0; base < 96; base += kWarpSize) {
    // The first pass starts every lane of the warp; returning lanes end.
    for (unsigned l = 0; l < kWarpSize; ++l) {
      expect.push_back((base + l) * 2);
      if (l % 3 == 0) expect.push_back((base + l) * 2 + 1);
    }
    // Backoff lanes end on their third activation, two passes later; then
    // the ballot resolves and its lanes end.
    for (unsigned l = 2; l < kWarpSize; l += 3) {
      expect.push_back((base + l) * 2 + 1);
    }
    for (unsigned l = 1; l < kWarpSize; l += 3) {
      expect.push_back((base + l) * 2 + 1);
    }
  }
  EXPECT_EQ(log, expect);
  // Per warp: 32 starts, 2 x 10 backoff resumes, 11 ballot releases. A
  // returning lane's stack serves the ballot lane after it, so each warp
  // holds 11 + 10 stacks at its peak.
  EXPECT_EQ(stats.counters.lane_switches, 189u);
  EXPECT_EQ(stats.counters.fibers_created, 21u);
}

TEST(Simt, ChainedLaneErrorIsRethrown) {
  // Lane 5 of a run-to-completion block throws: the launch rethrows that
  // error after every other lane ran exactly once, and the device runs the
  // next launch clean.
  Device local(1u << 20, GpuConfig{.num_sms = 1});
  std::vector<std::uint32_t> runs(256, 0);
  std::string what;
  try {
    local.launch(1, 256, [&](ThreadCtx& t) {
      ++runs[t.thread_rank()];
      if (t.thread_rank() == 5) throw std::runtime_error{"lane 5"};
    });
    FAIL() << "expected the lane's error";
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "lane 5");
  EXPECT_TRUE(std::all_of(runs.begin(), runs.end(),
                          [](std::uint32_t r) { return r == 1; }));
  std::uint32_t count = 0;
  const auto stats = local.launch(1, 256, [&](ThreadCtx& t) {
    t.atomic_add(&count, 1u);
  });
  EXPECT_EQ(count, 256u);
  EXPECT_EQ(stats.counters.lane_switches, 256u);
  EXPECT_EQ(stats.counters.fibers_created, 0u);
}

TEST(Simt, BackToBackLaunchesRefreshLaneSetup) {
  // One SM reuses its lane records across launches and blocks. Each launch
  // changes the geometry and the shared-memory size (the second one grows
  // the buffer), and every lane leaves a lock note behind: every lane of
  // every block must still see its own launch's geometry, a zeroed shared
  // buffer of the requested size, and no lock notes.
  Device local(1u << 20, GpuConfig{.num_sms = 1});
  struct Shape {
    unsigned grid, block;
    std::size_t shared;
  };
  const Shape shapes[] = {{3, 64, 16}, {5, 96, 4096}, {4, 40, 0}};
  static std::uint32_t lock_word = 0;
  for (const Shape& s : shapes) {
    std::vector<std::uint32_t> bad(s.grid * s.block, 1);
    local.launch(s.grid, s.block, [&](ThreadCtx& t) {
      const unsigned in_block = t.lane_id() + t.warp_in_block() * kWarpSize;
      const auto sh = t.shared();
      const bool ok =
          t.block_dim() == s.block && t.grid_dim() == s.grid &&
          in_block < s.block &&
          t.thread_rank() == t.block_idx() * s.block + in_block &&
          t.block_idx() < s.grid && t.lane_id() == in_block % kWarpSize &&
          t.smid() == 0 && t.num_sms() == 1 && t.held_locks() == 0 &&
          sh.size() == s.shared &&
          std::all_of(sh.begin(), sh.end(),
                      [](std::byte b) { return b == std::byte{0}; });
      bad[t.thread_rank()] = ok ? 0 : 1;
      t.note_lock_acquired(&lock_word);
      t.sync_block();  // every lane has checked before any writes below
      if (!sh.empty()) sh[in_block % sh.size()] = std::byte{0xAB};
    }, s.shared);
    for (std::size_t r = 0; r < bad.size(); ++r) {
      EXPECT_EQ(bad[r], 0u) << "grid " << s.grid << " block " << s.block
                            << " rank " << r;
    }
  }
}

TEST(Simt, CollectiveSlotsNeedNoResetBetweenBlocks) {
  // One SM runs four one-warp blocks on the same lane records, and a lane's
  // collective slot is not reset between blocks. Blocks 0-2 end with their
  // odd lanes parked at an explicit-mask sync and broadcast, so each odd
  // lane's slot keeps a non-zero member mask. Blocks 1, 2 and 3 then open
  // with an open-group reduction, ballot and coalesce: each entry must
  // write what its resolution reads, or the stale mask regroups the lanes.
  Device local(1u << 20, GpuConfig{.num_sms = 1});
  std::vector<std::uint64_t> got(4 * kWarpSize * 3, 0);
  const auto stats = local.launch(4, kWarpSize, [&](ThreadCtx& t) {
    std::uint64_t* out = &got[t.thread_rank() * 3];
    switch (t.block_idx()) {
      case 1:
        out[0] = t.reduce_add(std::uint64_t{t.lane_id()} + 1);
        break;
      case 2:
        out[0] = t.ballot(t.lane_id() < 5);
        break;
      case 3: {
        out[0] = t.coalesce().mask;
        out[1] = t.scan_exclusive_add(std::uint64_t{1});
        out[2] = t.shfl(std::uint64_t{t.lane_id()} * 7, 3);
        return;
      }
      default:
        break;
    }
    if (t.lane_id() % 2 == 1) {
      const auto g = t.coalesce();
      t.sync_group(g);
      out[2] = t.broadcast(g, std::uint64_t{t.lane_id()} * 10, g.leader);
    }
  });
  for (unsigned lane = 0; lane < kWarpSize; ++lane) {
    const auto at = [&](unsigned block, unsigned k) {
      return got[(block * kWarpSize + lane) * 3 + k];
    };
    EXPECT_EQ(at(1, 0), 528u) << lane;  // 1 + 2 + ... + 32
    EXPECT_EQ(at(2, 0), 0x1Fu) << lane;
    EXPECT_EQ(at(3, 0), ~0u) << lane;
    EXPECT_EQ(at(3, 1), lane) << lane;
    EXPECT_EQ(at(3, 2), 21u) << lane;
    for (unsigned block = 0; block < 3; ++block) {
      EXPECT_EQ(at(block, 2), lane % 2 == 1 ? 10u : 0u) << lane;
    }
  }
  // Three collectives end each of blocks 0-2; blocks 1 and 2 open with
  // one, block 3 runs three.
  EXPECT_EQ(stats.counters.collectives, 3u * 3 + 2 + 3);
}

TEST(Simt, WatchdogDiagnosis) {
  // Thread 0 spins forever, the rest park at the block barrier: the
  // cancellation pins this TimeoutDiagnosis, and the device stays usable.
  GpuConfig cfg{.num_sms = 1};
  cfg.watchdog_ms = 100;
  cfg.watchdog_poll_ms = 5;
  Device local(1u << 20, cfg);
  TimeoutDiagnosis diag;
  try {
    local.launch(1, 64, [](ThreadCtx& t) {
      if (t.thread_rank() == 0) {
        for (;;) t.backoff();
      }
      t.sync_block();
    });
    FAIL() << "expected LaunchTimeout";
  } catch (const LaunchTimeout& e) {
    diag = e.diagnosis();
  }
  EXPECT_EQ(diag.block_idx, 0u);
  EXPECT_EQ(diag.lanes_done, 0u);
  EXPECT_EQ(diag.lanes_spinning, 1u);
  EXPECT_EQ(diag.lanes_parked, 63u);
  EXPECT_EQ(diag.lanes_ready, 0u);
  EXPECT_EQ(diag.first_stuck_rank, 0u);
  std::uint32_t count = 0;
  local.launch(1, 32, [&](ThreadCtx& t) { t.atomic_add(&count, 1u); });
  EXPECT_EQ(count, 32u);
}

TEST(Simt, WatchdogDiagnosisCountsExitedLanesAndLockHolders) {
  // Warp 2 exits at once (lane 64 with a lock note it never clears), thread
  // 40 of warp 1 holds a lock and spins, everyone else waits at the block
  // barrier: the diagnosis counts each state once and names only the live
  // holder, and unwinding a block with exited lanes leaves the device usable.
  GpuConfig cfg{.num_sms = 1};
  cfg.watchdog_ms = 100;
  cfg.watchdog_poll_ms = 5;
  Device local(1u << 20, cfg);
  static std::uint32_t held_lock = 0;
  static std::uint32_t exited_lock = 0;
  TimeoutDiagnosis diag;
  try {
    local.launch(1, 96, [](ThreadCtx& t) {
      if (t.warp_in_block() == 2) {
        if (t.thread_rank() == 64) t.note_lock_acquired(&exited_lock);
        return;
      }
      if (t.thread_rank() == 40) {
        t.note_lock_acquired(&held_lock);
        for (;;) t.backoff();
      }
      t.sync_block();
    });
    FAIL() << "expected LaunchTimeout";
  } catch (const LaunchTimeout& e) {
    diag = e.diagnosis();
  }
  EXPECT_EQ(diag.block_idx, 0u);
  EXPECT_EQ(diag.lanes_done, 32u);
  EXPECT_EQ(diag.lanes_spinning, 1u);
  EXPECT_EQ(diag.lanes_parked, 63u);
  EXPECT_EQ(diag.lanes_ready, 0u);
  EXPECT_EQ(diag.first_stuck_rank, 40u);
  ASSERT_EQ(diag.lock_holders.size(), 1u);
  EXPECT_EQ(diag.lock_holders[0].thread_rank, 40u);
  EXPECT_EQ(diag.lock_holders[0].lock_addr, &held_lock);
  std::uint32_t count = 0;
  local.launch(1, 96, [&](ThreadCtx& t) { t.atomic_add(&count, 1u); });
  EXPECT_EQ(count, 96u);
}

}  // namespace
}  // namespace gms::gpu
