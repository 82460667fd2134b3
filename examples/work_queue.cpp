// Work generation — the paper's canonical motivating scenario (§4.4.1):
// a producer kernel in which every thread emits a variable number of work
// items, followed by a consumer kernel that processes them. Compares a
// dynamic memory manager against the classic prefix-sum + bulk-allocation
// pattern that GPU code uses when no device-side malloc is available.
//
//   ./work_queue [allocator-name] [threads]
#include <cstdio>
#include <string>
#include <vector>

#include "core/stack_builder.h"
#include "core/utils.h"
#include "gpu/device.h"
#include "workloads/workgen.h"

int main(int argc, char** argv) {
  using namespace gms;
  core::register_all_allocators();
  const std::string name = argc > 1 ? argv[1] : "ScatterAlloc";
  const std::size_t threads = argc > 2 ? std::stoull(argv[2]) : 32'768;

  gpu::Device device(256u << 20);
  auto stack = core::StackBuilder(device).build(name, 192u << 20);
  auto& manager = stack.manager;

  // --- dynamic-memory producer/consumer ------------------------------------
  struct WorkBuffer {
    std::uint32_t* items;
    std::uint32_t count;
  };
  std::vector<WorkBuffer> buffers(threads);
  core::Stopwatch dyn_timer;
  device.launch_n(threads, [&](gpu::ThreadCtx& t) {
    core::SplitMix64 rng(t.thread_rank() * 41 + 7);
    const auto count = static_cast<std::uint32_t>(rng.range(1, 16));
    auto* items = static_cast<std::uint32_t*>(
        manager->malloc(t, count * sizeof(std::uint32_t)));
    for (std::uint32_t i = 0; i < count; ++i) {
      items[i] = t.thread_rank() ^ (i * 0x9E3779B9u);
    }
    buffers[t.thread_rank()] = {items, items == nullptr ? 0 : count};
  });
  std::uint64_t dynamic_sum = 0;
  device.launch_n(threads, [&](gpu::ThreadCtx& t) {
    const WorkBuffer& buf = buffers[t.thread_rank()];
    std::uint64_t local = 0;
    for (std::uint32_t i = 0; i < buf.count; ++i) local += buf.items[i];
    t.aggregated_atomic_add(&dynamic_sum, local);
    if (buf.items != nullptr) manager->free(t, buf.items);
  });
  const double dyn_ms = dyn_timer.elapsed_ms();

  // --- canonical prefix-sum baseline ---------------------------------------
  core::Stopwatch base_timer;
  std::vector<std::uint32_t> counts(threads);
  device.launch_n(threads, [&](gpu::ThreadCtx& t) {
    core::SplitMix64 rng(t.thread_rank() * 41 + 7);
    counts[t.thread_rank()] = static_cast<std::uint32_t>(rng.range(1, 16));
  });
  std::vector<std::uint64_t> offsets(threads + 1, 0);
  for (std::size_t i = 0; i < threads; ++i) {
    offsets[i + 1] = offsets[i] + counts[i];
  }
  std::vector<std::uint32_t> bulk(offsets[threads]);
  device.launch_n(threads, [&](gpu::ThreadCtx& t) {
    auto* items = bulk.data() + offsets[t.thread_rank()];
    for (std::uint32_t i = 0; i < counts[t.thread_rank()]; ++i) {
      items[i] = t.thread_rank() ^ (i * 0x9E3779B9u);
    }
  });
  std::uint64_t baseline_sum = 0;
  device.launch_n(threads, [&](gpu::ThreadCtx& t) {
    std::uint64_t local = 0;
    for (std::uint32_t i = 0; i < counts[t.thread_rank()]; ++i) {
      local += bulk[offsets[t.thread_rank()] + i];
    }
    t.aggregated_atomic_add(&baseline_sum, local);
  });
  const double base_ms = base_timer.elapsed_ms();

  std::printf("%zu producer threads, 1-16 items each\n", threads);
  std::printf("  %-14s : %8.3f ms (checksum %llu)\n", name.c_str(), dyn_ms,
              static_cast<unsigned long long>(dynamic_sum));
  std::printf("  %-14s : %8.3f ms (checksum %llu)\n", "prefix-sum", base_ms,
              static_cast<unsigned long long>(baseline_sum));
  if (dynamic_sum != baseline_sum) {
    std::printf("CHECKSUM MISMATCH\n");
    return 1;
  }
  std::printf("dynamic allocation is %.2fx the baseline time\n",
              dyn_ms / base_ms);
  return 0;
}
