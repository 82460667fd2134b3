#include "core/stub_allocators.h"

#include <cstdint>
#include <memory>
#include <string>

#include "core/registry.h"
#include "core/utils.h"

namespace gms::core {
namespace {

constexpr AllocatorTraits stub_traits(std::string_view name) {
  AllocatorTraits t{};
  t.name = name;
  t.family = "TestStub";
  t.paper_ref = "harness";
  t.year = 2026;
  t.general_purpose = true;
  t.supports_free = true;
  t.individual_free = true;
  t.its_safe = true;
  t.stable = false;     // the whole point
  t.extension = true;   // not part of the paper's population
  t.decorated = true;   // excluded from default enumeration
  return t;
}

/// Shared trivial bump heap so the stubs hand out real, writable memory up
/// to the moment they misbehave.
class BumpBase : public MemoryManager {
 public:
  BumpBase(std::size_t heap_bytes, const AllocatorTraits& traits)
      : traits_(traits),
        capacity_(heap_bytes),
        data_(std::make_unique<std::byte[]>(heap_bytes)) {}

  [[nodiscard]] const AllocatorTraits& traits() const override {
    return traits_;
  }

 protected:
  std::byte* bump(gpu::ThreadCtx& ctx, std::size_t bytes) {
    const auto take = round_up(bytes, 16);
    const auto old = ctx.atomic_add(&offset_, std::uint64_t{take});
    if (old + take > capacity_) {
      ctx.atomic_sub(&offset_, std::uint64_t{take});
      return nullptr;
    }
    return data_.get() + old;
  }

  const AllocatorTraits& traits_;
  std::size_t capacity_;
  std::uint64_t offset_ = 0;
  std::unique_ptr<std::byte[]> data_;
};

// ---- CrashStub -------------------------------------------------------------

constexpr AllocatorTraits kCrashTraits = stub_traits("CrashStub");

class CrashStub final : public BumpBase {
 public:
  explicit CrashStub(std::size_t heap_bytes)
      : BumpBase(heap_bytes, kCrashTraits) {}

  void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override {
    // A wild store, the classic way real allocators in the survey died.
    // The address flows through a volatile so the compiler can neither
    // prove the store away nor warn on it; page 0+64 is unmapped on every
    // platform we run on.
    volatile std::uintptr_t addr = 64;
    *reinterpret_cast<volatile std::uint32_t*>(addr) = 0xDEADBEEF;
    return bump(ctx, size);  // not reached
  }

  void free(gpu::ThreadCtx&, void*) override {}
};

// ---- HangStub --------------------------------------------------------------

constexpr AllocatorTraits kHangTraits = stub_traits("HangStub");

class HangStub final : public BumpBase {
 public:
  explicit HangStub(std::size_t heap_bytes)
      : BumpBase(heap_bytes, kHangTraits) {}

  void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override {
    // Spin on a flag nobody ever sets — deliberately WITHOUT ctx.backoff(),
    // so the lane never reaches a yield point and the in-child watchdog has
    // no chance to unwind it. Only the parent's deadline ends this cell.
    while (ctx.atomic_load(&never_set_) == 0) {
    }
    return bump(ctx, size);  // not reached
  }

  void free(gpu::ThreadCtx&, void*) override {}

 private:
  std::uint32_t never_set_ = 0;
};

// ---- CorruptStub -----------------------------------------------------------

constexpr AllocatorTraits kCorruptTraits = stub_traits("CorruptStub");

/// Works correctly from the workload's point of view (every malloc returns
/// distinct writable memory; free accepts it) but scribbles over its own
/// block headers on free. Nothing observable goes wrong during the run —
/// only a post-kernel audit() walk notices the smashed metadata.
class CorruptStub final : public BumpBase {
 public:
  static constexpr std::uint32_t kLive = 0x57A8B10Cu;
  static constexpr std::uint32_t kSmash = 0x0BADBEEFu;

  explicit CorruptStub(std::size_t heap_bytes)
      : BumpBase(heap_bytes, kCorruptTraits) {}

  void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override {
    std::byte* raw = bump(ctx, sizeof(Header) + round_up(size, 16));
    if (raw == nullptr) return nullptr;
    auto* h = reinterpret_cast<Header*>(raw);
    ctx.atomic_store(&h->size, static_cast<std::uint32_t>(size));
    ctx.atomic_store(&h->magic, kLive);
    return raw + sizeof(Header);
  }

  void free(gpu::ThreadCtx& ctx, void* ptr) override {
    if (ptr == nullptr) return;
    auto* h = reinterpret_cast<Header*>(static_cast<std::byte*>(ptr) -
                                        sizeof(Header));
    // The bug under test: the header magic is destroyed instead of being
    // marked freed. Size survives, so the audit walk stays on the rails.
    ctx.atomic_store(&h->magic, kSmash);
  }

  [[nodiscard]] AuditResult audit() override {
    AuditResult result;
    result.supported = true;
    const std::uint64_t end =
        std::atomic_ref<std::uint64_t>(offset_).load(
            std::memory_order_acquire);
    std::uint64_t off = 0;
    while (off + sizeof(Header) <= end && off + sizeof(Header) <= capacity_) {
      auto* h = reinterpret_cast<Header*>(data_.get() + off);
      const std::uint32_t magic =
          std::atomic_ref<std::uint32_t>(h->magic).load(
              std::memory_order_acquire);
      const std::uint32_t size =
          std::atomic_ref<std::uint32_t>(h->size).load(
              std::memory_order_acquire);
      ++result.structures_walked;
      if (magic != kLive) {
        ++result.failures;
        if (result.detail.empty()) {
          result.detail = "block @" + std::to_string(off) +
                          ": bad header magic";
        }
      }
      const std::uint64_t step = sizeof(Header) + round_up(size, 16);
      if (step == sizeof(Header) || off + step <= off) break;
      off += step;
    }
    result.ok = result.failures == 0;
    return result;
  }

 private:
  struct Header {
    std::uint32_t magic;
    std::uint32_t size;
    std::uint64_t pad;  // keep payloads 16 B-aligned
  };
  static_assert(sizeof(Header) == 16);
};

}  // namespace

void register_stub_allocators() {
  static const bool once = [] {
    auto& reg = Registry::instance();
    reg.add({kCrashTraits, '?',
             [](gpu::Device&, std::size_t heap_bytes) {
               return std::make_unique<CrashStub>(heap_bytes);
             },
             nullptr});
    reg.add({kHangTraits, '?',
             [](gpu::Device&, std::size_t heap_bytes) {
               return std::make_unique<HangStub>(heap_bytes);
             },
             nullptr});
    reg.add({kCorruptTraits, '?',
             [](gpu::Device&, std::size_t heap_bytes) {
               return std::make_unique<CorruptStub>(heap_bytes);
             },
             nullptr});
    return true;
  }();
  (void)once;
}

}  // namespace gms::core
