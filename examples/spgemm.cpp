// Sparse matrix-matrix multiplication with per-row dynamic output — the
// sparse-linear-algebra application the paper's introduction motivates via
// AC-SpGEMM [23]. Each row allocates an upper-bound scratch accumulator,
// merges partial products, then emits an exactly-sized CSR row.
//
//   ./spgemm [allocator-name] [rows] [nnz-per-row]
#include <cstdio>
#include <string>

#include "core/stack_builder.h"
#include "workloads/spgemm.h"

int main(int argc, char** argv) {
  using namespace gms;
  core::register_all_allocators();
  const std::string name = argc > 1 ? argv[1] : "ScatterAlloc";
  const std::uint32_t rows =
      argc > 2 ? static_cast<std::uint32_t>(std::stoul(argv[2])) : 4'096;
  const std::uint32_t nnz =
      argc > 3 ? static_cast<std::uint32_t>(std::stoul(argv[3])) : 8;

  const auto a = work::make_random_sparse(rows, rows, nnz, 0xAAAA);
  const auto b = work::make_random_sparse(rows, rows, nnz, 0xBBBB);
  std::printf("A: %ux%u, %u nnz   B: %ux%u, %u nnz\n", a.rows, a.cols,
              a.nnz(), b.rows, b.cols, b.nnz());

  gpu::Device device(512u << 20);
  auto stack = core::StackBuilder(device).build(name, 384u << 20);
  auto& mgr = stack.manager;

  auto result = work::run_spgemm(device, *mgr, a, b);
  std::printf("[%s] C = A*B: %.3f ms, %llu nnz, %llu failed rows\n",
              name.c_str(), result.kernel_ms,
              static_cast<unsigned long long>(result.c_nnz),
              static_cast<unsigned long long>(result.failed_rows));

  const auto reference = work::spgemm_reference(a, b);
  const bool ok = work::spgemm_matches(result, reference);
  std::printf("verification against host reference: %s (%u nnz expected)\n",
              ok ? "MATCH" : "MISMATCH", reference.nnz());
  work::free_result(device, *mgr, result);
  return ok && result.failed_rows == 0 ? 0 : 1;
}
