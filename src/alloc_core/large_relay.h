#pragma once

#include <cstddef>
#include <memory>

#include "allocators/cuda_standin.h"
#include "gpu/thread_ctx.h"

namespace gms::alloc_core {

/// The shared large-request escape hatch (paper §2/§4: Halloc, Ouroboros and
/// FDGMalloc all forward requests above their direct-service limit to the
/// CUDA allocator). Owns the CudaStandin slice each of those managers
/// previously embedded by hand and answers `owns(ptr)` so free-side routing
/// stops duplicating base/end range checks.
class LargeRequestRelay {
 public:
  LargeRequestRelay() = default;  ///< disengaged: malloc fails, owns() false

  /// Engages the relay over `[base, base + bytes)` — typically the tail a
  /// SubArena::take_rest handed back. The slice layout is CudaStandin's,
  /// unchanged from the embedded-standin era (trace-replay fidelity).
  void engage(std::byte* base, std::size_t bytes) {
    base_ = base;
    bytes_ = bytes;
    standin_ = std::make_unique<alloc::CudaStandin>(base, bytes);
  }

  [[nodiscard]] std::size_t bytes() const { return bytes_; }

  /// True iff `p` points into the relay's slice — the free-routing question
  /// every relaying manager used to answer with its own range arithmetic.
  [[nodiscard]] bool owns(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    return standin_ != nullptr && b >= base_ && b < base_ + bytes_;
  }

  void* malloc(gpu::ThreadCtx& ctx, std::size_t size) {
    if (standin_ == nullptr) return nullptr;
    return standin_->malloc(ctx, size);
  }

  void free(gpu::ThreadCtx& ctx, void* p) {
    if (standin_ == nullptr || p == nullptr) return;
    standin_->free(ctx, p);
  }

 private:
  std::unique_ptr<alloc::CudaStandin> standin_;
  std::byte* base_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace gms::alloc_core
