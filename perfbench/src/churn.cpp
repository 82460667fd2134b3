// churn: the survey's §4.2 alloc/free loop (Fig. 9) over every bare manager
// in the default registry population, one fresh 1-SM device per manager.
// One SM keeps the host at one busy simulator thread and makes every
// counter repeat exactly from run to run.
#include "churn.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/registry.h"
#include "core/utils.h"

namespace perfbench {

std::vector<std::vector<std::uint32_t>> churn_sizes(std::uint64_t seed,
                                                    std::uint64_t lanes,
                                                    unsigned rounds) {
  // bench_alloc_size runs each of the 12 ladder steps as a case of its own;
  // a round here holds every step equally often (lane i starts on step
  // i mod 12) and the seed shuffles which lane gets which. Per request that
  // leans toward small sizes, as a uniform draw over bytes would not; 2 of
  // the 12 steps lie above 3 KiB, where relaying managers hand off to the
  // CUDA stand-in.
  static constexpr unsigned kSteps = 12;
  core::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 0xC4u);
  std::vector<std::vector<std::uint32_t>> sizes(
      rounds, std::vector<std::uint32_t>(lanes));
  for (auto& round : sizes) {
    for (std::uint64_t i = 0; i < lanes; ++i) round[i] = 4u << (i % kSteps);
    for (std::uint64_t i = lanes; i > 1; --i) {
      std::swap(round[i - 1], round[rng.next() % i]);
    }
  }
  return sizes;
}

ChurnRound churn_round(Run& run, gpu::Device& dev, core::MemoryManager& mgr,
                       const std::vector<std::uint32_t>& sizes,
                       std::vector<void*>& ptrs, const std::string& cell) {
  const auto& traits = mgr.traits();
  const bool warp_only = traits.warp_level_only;
  const std::uint64_t n = sizes.size();
  ptrs.assign(n, nullptr);
  ChurnRound out;
  out.malloc = run.launch(dev, n, [&](gpu::ThreadCtx& t) {
    const std::size_t size = sizes[t.thread_rank()];
    ptrs[t.thread_rank()] =
        warp_only ? mgr.warp_malloc(t, size) : mgr.malloc(t, size);
  });
  out.ops = n;

  // Host check, outside the timed kernels.
  const auto& arena = dev.arena();
  std::vector<std::pair<std::size_t, std::uint32_t>> live;
  live.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (ptrs[i] == nullptr) {
      ++out.failed;
      continue;
    }
    check(arena.contains(ptrs[i]), cell + ": pointer outside the arena");
    const std::size_t off = arena.offset_of(ptrs[i]);
    check(off + sizes[i] <= arena.size(), cell + ": block runs off the arena");
    live.emplace_back(off, sizes[i]);
    out.dense += core::round_up(sizes[i], 16);
  }
  std::sort(live.begin(), live.end());
  std::size_t hi = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    check(i == 0 || live[i - 1].first + live[i - 1].second <= live[i].first,
          cell + ": live allocations overlap");
    hi = std::max(hi, live[i].first + live[i].second);
  }
  if (!live.empty()) out.span = hi - live.front().first;

  if (traits.supports_free && traits.individual_free) {
    out.free = run.launch(dev, n, [&](gpu::ThreadCtx& t) {
      mgr.free(t, ptrs[t.thread_rank()]);
    });
    out.has_free = true;
  } else if (warp_only) {
    out.free =
        run.launch(dev, n, [&](gpu::ThreadCtx& t) { mgr.warp_free_all(t); });
    out.has_free = true;
  }
  if (out.has_free) out.ops += n;
  return out;
}

namespace {

constexpr unsigned kSms = 1;
constexpr std::uint64_t kThreads = 16384;
constexpr unsigned kRounds = 8;
constexpr std::size_t kHeap = std::size_t{256} << 20;
constexpr std::size_t kArenaSlack = std::size_t{8} << 20;

/// Everything one manager accumulates over the run.
struct ManagerStats {
  bool host = false;
  std::vector<double> malloc_ms, free_ms, round_ms;
  double worst_frag = 0;
  gpu::StatsCounters counters;
  std::uint64_t ops = 0, mallocs = 0;
};

}  // namespace

Report run_churn(Run& run) {
  core::register_all_allocators();
  const auto names = core::Registry::instance().names();
  std::map<std::string, ManagerStats> stats;
  std::vector<double> kernel_ms;
  std::uint64_t relayed = 0, relay_requests = 0;

  auto workload_span = run.spans.open("bench", "churn");
  while (run.next_pass()) {
    const auto rounds = run.setup(
        "sizes", [&] { return churn_sizes(run.opt.seed, kThreads, kRounds); });
    for (const auto& name : names) {
      auto cell_span = run.spans.open("bench", "cell");
      auto& ms = stats[name];
      auto dev = run.setup(name, [&] {
        return std::make_unique<gpu::Device>(kHeap + kArenaSlack,
                                             gpu::GpuConfig{.num_sms = kSms});
      });
      auto stack = run.setup(name, [&] {
        auto s = run.build(*dev, name, kHeap);
        warm_up(run, *dev, kThreads);
        return s;
      });
      auto& mgr = *stack.manager;
      ms.host = mgr.traits().host_based;

      auto phase_span = run.spans.open("bench", "rounds");
      std::vector<void*> ptrs;
      for (const auto& sizes : rounds) {
        const auto r = churn_round(run, *dev, mgr, sizes, ptrs, name);
        run.mallocs += sizes.size();
        run.failed_mallocs += r.failed;
        check(r.failed == 0, name + ": malloc returned nullptr");
        ms.worst_frag = std::max(ms.worst_frag, frag_ratio(r.span, r.dense));
        ms.malloc_ms.push_back(r.malloc.elapsed_ms);
        kernel_ms.push_back(r.malloc.elapsed_ms);
        if (r.has_free) {
          ms.free_ms.push_back(r.free.elapsed_ms);
          kernel_ms.push_back(r.free.elapsed_ms);
        }
        ms.round_ms.push_back(r.ms());
        ms.counters += r.malloc.counters;
        ms.counters += r.free.counters;
        ms.ops += r.ops;
        ms.mallocs += sizes.size();
        run.throughput.add(name, static_cast<double>(r.ops), r.ms() / 1e3);
        if (mgr.traits().relays_large_to_system) {
          for (const auto size : sizes) {
            relayed += size > mgr.traits().max_direct_size;
          }
          relay_requests += sizes.size();
        }
      }
      run.audit(mgr, name);
    }
  }

  Report rep;
  rep.attempted = run.mallocs;
  rep.failed = run.failed_mallocs;
  std::vector<double> round_p50, malloc_p50, free_p50, frag;
  gpu::StatsCounters all, host;
  std::uint64_t all_ops = 0, host_ops = 0;
  std::map<std::string, double> calls;
  for (const auto& [name, ms] : stats) {
    const std::string layer = ms.host ? "hostalloc" : "allocators";
    calls[layer + ".calls.malloc"] += static_cast<double>(ms.mallocs);
    calls[layer + ".calls.free"] += static_cast<double>(ms.ops - ms.mallocs);
    round_p50.push_back(median(ms.round_ms));
    malloc_p50.push_back(median(ms.malloc_ms));
    if (!ms.free_ms.empty()) free_p50.push_back(median(ms.free_ms));
    frag.push_back(ms.worst_frag);
    all += ms.counters;
    all_ops += ms.ops;
    if (ms.host) {
      host += ms.counters;
      host_ops += ms.ops;
    }
    const std::string cell = layer + "." + name;
    const double ops = static_cast<double>(ms.ops);
    rep.add(cell + ".ops_per_s",
            ops / static_cast<double>(ms.round_ms.size()) /
                (median(ms.round_ms) / 1e3),
            "ops/s");
    rep.add(cell + ".atomics_per_op",
            per_op(static_cast<double>(ms.counters.atomic_total()), ops),
            "count");
  }
  add_common_metrics(rep, run, geomean(round_p50));

  add_kernel_metrics(rep, all, all_ops, run.passes(), kernel_ms);
  rep.add("allocators.malloc_kernel_p50_ms", geomean(malloc_p50), "ms");
  rep.add("allocators.free_kernel_p50_ms", geomean(free_p50), "ms");
  rep.add("allocators.frag_ratio", geomean(frag), "ratio");
  rep.add("hostalloc.backoffs_per_op",
          per_op(static_cast<double>(host.backoffs),
                 static_cast<double>(host_ops)),
          "count");
  rep.add("alloc_core.relay_share_pct",
          share_pct(static_cast<double>(relayed),
                    static_cast<double>(relay_requests)),
          "%");
  for (const auto& [call, n] : calls) rep.add(call, n, "count");
  if (run.opt.trace) add_launch_floor(rep, run, kSms, kThreads, kernel_ms);
  return rep;
}

}  // namespace perfbench
