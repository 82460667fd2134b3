#pragma once

#include <cstdint>

#include "gpu/thread_ctx.h"

namespace gms::alloc {

/// Bounded, lock-free MPMC FIFO over device memory (Vyukov-style ticket
/// queue: per-slot sequence numbers, CAS-claimed head/tail).
///
/// This is the "fixed-capacity, lock-free FIFO array" XMalloc builds its
/// first- and second-level buffers from (§2.2) and the "standard queue" of
/// Ouroboros (§2.10, Ouro-S). Both sides are non-blocking: try_dequeue
/// reports empty instead of waiting, which is what lets the allocators fall
/// through to their slow paths instead of spinning on starved queues.
///
/// The structure is a *view*: construct it over arena memory laid out by
/// `layout_words` and initialised once via `init_host`.
class BoundedTicketQueue {
 public:
  /// u64 words needed for a queue of `capacity` items: head, tail,
  /// capacity slots of {sequence, value}.
  static constexpr std::size_t layout_words(std::size_t capacity) {
    return 2 + 2 * capacity;
  }

  /// An unattached queue; assign a storage-bound instance before use.
  BoundedTicketQueue() = default;

  BoundedTicketQueue(std::uint64_t* storage, std::size_t capacity)
      : head_(storage), tail_(storage + 1), seq_(storage + 2),
        val_(storage + 2 + capacity), capacity_(capacity) {}

  /// Host-side one-time initialisation (slot i's sequence starts at i).
  void init_host() {
    *head_ = 0;
    *tail_ = 0;
    for (std::size_t i = 0; i < capacity_; ++i) seq_[i] = i;
  }

  /// Host-side pre-population before the queue is shared with lanes.
  void push_host(std::uint64_t value) {
    const std::uint64_t pos = (*tail_)++;
    val_[pos % capacity_] = value;
    seq_[pos % capacity_] = pos + 1;
  }

  /// @return false when the queue is full.
  bool try_enqueue(gpu::ThreadCtx& ctx, std::uint64_t value) {
    for (;;) {
      const std::uint64_t pos = ctx.atomic_load(tail_);
      std::uint64_t* seq = &seq_[pos % capacity_];
      const std::uint64_t s = ctx.atomic_load(seq);
      if (s == pos) {
        if (ctx.atomic_cas(tail_, pos, pos + 1) == pos) {
          ctx.atomic_store(&val_[pos % capacity_], value);
          ctx.atomic_store(seq, pos + 1);
          return true;
        }
      } else if (s < pos) {
        return false;  // slot still holds an unconsumed value: full
      }
      ctx.backoff();
    }
  }

  /// @return false when the queue is empty (or an in-flight enqueue has not
  /// published yet — callers treat that as empty and take their slow path).
  bool try_dequeue(gpu::ThreadCtx& ctx, std::uint64_t& value_out) {
    for (;;) {
      const std::uint64_t pos = ctx.atomic_load(head_);
      std::uint64_t* seq = &seq_[pos % capacity_];
      const std::uint64_t s = ctx.atomic_load(seq);
      if (s == pos + 1) {
        if (ctx.atomic_cas(head_, pos, pos + 1) == pos) {
          value_out = ctx.atomic_load(&val_[pos % capacity_]);
          ctx.atomic_store(seq, pos + capacity_);
          return true;
        }
      } else if (s <= pos) {
        return false;
      }
      ctx.backoff();
    }
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::uint64_t* head_ = nullptr;
  std::uint64_t* tail_ = nullptr;
  std::uint64_t* seq_ = nullptr;
  std::uint64_t* val_ = nullptr;
  std::size_t capacity_ = 0;
};

}  // namespace gms::alloc
