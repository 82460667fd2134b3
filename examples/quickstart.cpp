// Quickstart: create a simulated device, pick any surveyed allocator by name,
// and call malloc/free from thousands of concurrent SIMT threads.
//
//   ./quickstart [allocator-name]     (default: Ouro-P-VA; try ScatterAlloc,
//                                      Halloc, CUDA, RegEff-CF, ...)
#include <cstdio>
#include <string>
#include <vector>

#include "core/stack_builder.h"
#include "gpu/device.h"

int main(int argc, char** argv) {
  using namespace gms;
  core::register_all_allocators();
  const std::string name = argc > 1 ? argv[1] : "Ouro-P-VA";

  // A simulated GPU with 128 MiB of device memory, and a memory manager
  // governing 96 MiB of it. Swapping the name swaps the whole allocator —
  // the survey framework's central usability promise (§3).
  gpu::Device device(128u << 20);
  // The name is a stack spec: "Halloc+V" or "validate>Halloc" adds the
  // validate stage. `stack` owns every layer (and a trace stage's recorder).
  auto stack = core::StackBuilder(device).build(name, 96u << 20);
  auto& manager = stack.manager;
  std::printf("allocator : %s (%s, %d)\n", name.c_str(),
              std::string(manager->traits().family).c_str(),
              manager->traits().year);
  std::printf("init time : %.3f ms\n", manager->init_ms());

  // 50'000 threads each allocate a small buffer, fill it, and free it.
  constexpr std::size_t kThreads = 50'000;
  std::vector<std::uint32_t> first_word(kThreads, 0);
  std::uint64_t oom = 0;
  const auto stats = device.launch_n(kThreads, [&](gpu::ThreadCtx& t) {
    const std::size_t bytes = 16 + (t.thread_rank() % 8) * 16;
    auto* p = static_cast<std::uint32_t*>(manager->malloc(t, bytes));
    if (p == nullptr) {
      t.atomic_add(&oom, std::uint64_t{1});
      return;
    }
    for (std::size_t w = 0; w < bytes / 4; ++w) p[w] = t.thread_rank();
    first_word[t.thread_rank()] = p[0];
    manager->free(t, p);
  });

  std::size_t correct = 0;
  for (std::size_t i = 0; i < kThreads; ++i) {
    correct += first_word[i] == i;
  }
  std::printf("kernel    : %.3f ms for %zu malloc/fill/free round trips\n",
              stats.elapsed_ms, kThreads);
  std::printf("verified  : %zu/%zu buffers written correctly, %llu OOM\n",
              correct, kThreads, static_cast<unsigned long long>(oom));
  std::printf("atomics   : %llu (%.1f per round trip), CAS retries: %llu\n",
              static_cast<unsigned long long>(stats.counters.atomic_total()),
              static_cast<double>(stats.counters.atomic_total()) / kThreads,
              static_cast<unsigned long long>(stats.counters.atomic_cas_failed));
  return correct == kThreads && oom == 0 ? 0 : 1;
}
