#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "gpu/fiber.h"

namespace gms::gpu {

/// Per-SM pool of lane stacks.
///
/// A BlockExec used to give every lane of a block its own eagerly allocated
/// fiber (64 KiB default — 64 MiB for a 1024-lane block, all touched by the
/// watermark fill). Most kernels never need that: a lane only keeps a stack
/// while it is suspended mid-body, and a kernel without collectives, barriers
/// or backoffs runs each lane to completion on its first activation, after
/// which BlockExec starts the pass's next unstarted lane on the same stack.
/// A run-to-completion block thus costs one stack activation per chain, not
/// one per lane, and one stack serves the whole block. The pool hands out a
/// stack to the lane that starts a chain and takes it back when the lane
/// holding it at the chain's end retires, so the pool's size converges to
/// the high-water mark of *concurrently suspended* lanes — the launch
/// configuration's true stack demand.
class FiberPool {
 public:
  explicit FiberPool(std::size_t stack_bytes) : stack_bytes_(stack_bytes) {}

  /// Hands out a finished fiber, reusing a pooled stack when one is free.
  /// @return the fiber plus whether a new stack had to be wired (counted into
  /// StatsCounters::fibers_created by the caller).
  std::unique_ptr<Fiber> acquire(bool& created) {
    std::unique_ptr<Fiber> f;
    if (!free_.empty()) {
      f = std::move(free_.back());
      free_.pop_back();
      created = false;
    } else {
      f = std::make_unique<Fiber>(stack_bytes_);
      ++created_;
      created = true;
    }
    ++outstanding_;
    if (outstanding_ > high_water_) high_water_ = outstanding_;
    return f;
  }

  /// Returns a retired lane's fiber. The fiber must be finished (its body
  /// returned or it was abandoned); its stack is reused as-is by reset().
  void release(std::unique_ptr<Fiber> f) {
    --outstanding_;
    free_.push_back(std::move(f));
  }

  [[nodiscard]] std::size_t stack_bytes() const { return stack_bytes_; }
  [[nodiscard]] std::size_t outstanding() const { return outstanding_; }
  /// Peak number of concurrently live stacks — what an eager scheme would
  /// have to compare against block_dim to see the saving.
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  [[nodiscard]] std::size_t created() const { return created_; }

 private:
  std::size_t stack_bytes_;
  std::vector<std::unique_ptr<Fiber>> free_;
  std::size_t outstanding_ = 0;
  std::size_t high_water_ = 0;
  std::size_t created_ = 0;
};

}  // namespace gms::gpu
