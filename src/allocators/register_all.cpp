#include "allocators/atomic_alloc.h"
#include "allocators/bulk_alloc.h"
#include "allocators/cuda_standin.h"
#include "allocators/fdg_malloc.h"
#include "allocators/halloc.h"
#include "allocators/ouroboros.h"
#include "allocators/reg_eff.h"
#include "allocators/scatter_alloc.h"
#include "allocators/xmalloc.h"
#include "core/registry.h"
#include "hostalloc/extent_best_fit.h"
#include "hostalloc/host_buddy.h"
#include "hostalloc/stream_pool.h"

namespace gms::core {

namespace {

template <typename Manager, typename... Extra>
ManagerFactory make_factory(Extra... extra) {
  return [extra...](gpu::Device& dev, std::size_t heap) {
    return std::make_unique<Manager>(dev, heap, extra...);
  };
}

/// Registers one base variant. Traits are probed exactly once per factory —
/// a throwaway manager on the caller's probe device — and cached in the
/// registry entry.
void add(gpu::Device& probe_dev, char selector, ManagerFactory factory,
         std::shared_ptr<const ConfigModel> config = nullptr) {
  Registry::instance().add(RegistryEntry{
      .traits = factory(probe_dev, 16u << 20)->traits(),
      .selector = selector,
      .factory = std::move(factory),
      .config = std::move(config),
  });
}

/// Registers a configurable base variant: the entry's stock factory builds
/// `defaults`, and a TypedConfigModel (shared schema + these per-entry
/// defaults) handles "{k=v}" overrides. The eager canonicalize({}) call
/// runs the schema's cross-field checks against the defaults at startup —
/// a misregistered entry fails loudly, not at first override.
template <typename Manager>
void add_cfg(gpu::Device& probe_dev, char selector,
             typename Manager::Config defaults = {}) {
  auto model = std::make_shared<TypedConfigModel<Manager>>(
      Manager::config_schema(), defaults);
  (void)model->canonicalize({});
  add(probe_dev, selector, make_factory<Manager>(defaults), std::move(model));
}

/// The 20 bases, in registry order.
void add_bases() {
  using alloc::Ouroboros;
  using alloc::RegEffAlloc;
  using QK = Ouroboros::QueueKind;

  // Scoped to this call (not a function-local static): probing must not
  // leave a device whose teardown order races the registry singleton's.
  gpu::Device probe_dev(32u << 20, gpu::GpuConfig{.num_sms = 1});

  // Paper selector letters: o+s+h+c+r+x (+a Atomic, +f FDGMalloc). Every
  // entry except the CudaStandin reference carries a ConfigModel, so
  // "Name{k=v}" overrides work uniformly across the population.
  add_cfg<alloc::AtomicAlloc>(probe_dev, 'a');
  add(probe_dev, 'c', make_factory<alloc::CudaStandin>());
  add_cfg<alloc::XMalloc>(probe_dev, 'x');
  add_cfg<alloc::ScatterAlloc>(probe_dev, 's');
  add_cfg<alloc::FDGMalloc>(probe_dev, 'f');
  add_cfg<alloc::Halloc>(probe_dev, 'h');

  // The four RegEff and six Ouroboros variants share one schema each; the
  // identity fields (fused/multi, queue/chunk_based) live only in the
  // per-entry defaults and are not override-reachable.
  add_cfg<RegEffAlloc>(probe_dev, 'r',
                       RegEffAlloc::Config{.fused = false, .multi = false});
  add_cfg<RegEffAlloc>(probe_dev, 'r',
                       RegEffAlloc::Config{.fused = true, .multi = false});
  add_cfg<RegEffAlloc>(probe_dev, 'r',
                       RegEffAlloc::Config{.fused = false, .multi = true});
  add_cfg<RegEffAlloc>(probe_dev, 'r',
                       RegEffAlloc::Config{.fused = true, .multi = true});

  for (bool chunk_based : {false, true}) {
    for (QK kind : {QK::kStandard, QK::kVirtArray, QK::kVirtLinked}) {
      add_cfg<Ouroboros>(probe_dev, 'o',
                         Ouroboros::Config{.queue = kind,
                                           .chunk_based = chunk_based});
    }
  }

  // Extension beyond the paper's evaluated population (§2.9 had no public
  // version): our BulkAllocator rebuild, selector 'b'.
  add_cfg<alloc::BulkAlloc>(probe_dev, 'b');

  // The host-based family (src/hostalloc, DESIGN.md §14), selector 'm':
  // the survey column the paper's device-side population omits — the host
  // plans every placement, the device only consumes.
  add_cfg<hostalloc::ExtentBestFit>(probe_dev, 'm');
  add_cfg<hostalloc::HostBuddy>(probe_dev, 'm');
  add_cfg<hostalloc::StreamPool>(probe_dev, 'm');
}

}  // namespace

void register_all_allocators() {
  // Its own once-flag, like register_stub_allocators(): entries another
  // caller registered first (the survey stubs) are not the bases.
  static const bool once = (add_bases(), true);
  (void)once;
}

}  // namespace gms::core
