// Compiled into gms_trace (not gms_core): the trace stage constructs
// TracingManager, which lives a layer above the core library. Everything
// else the builder touches (registry, validator, injector, aggregator) is
// visible from there without a dependency cycle. The layers below gms_trace
// that emit markers (resilient, warpagg, the host-based bases) hold a
// header-only trace::MarkerSink; build() points it at the stack's recorder.
#include "core/stack_builder.h"

#include <stdexcept>

#include "alloc_core/resilient_manager.h"
#include "alloc_core/warp_aggregator.h"
#include "core/validating_manager.h"
#include "hostalloc/host_manager.h"
#include "trace/trace_recorder.h"
#include "trace/tracing_manager.h"

namespace gms::core {

namespace {

/// The typed knobs of one stage token: `overrides` applied over the
/// stage's defaults through its schema (throws ConfigError).
template <typename Spec>
Spec stage_spec(const ConfigKV& overrides) {
  return Spec::config_schema().parse(overrides, Spec{});
}

/// Factory wrapping `base` in one stage configured by `config` (the
/// stage's "{k=v}" overrides, validated eagerly). A trace stage records
/// into `rec`.
ManagerFactory stage_factory(StackSpec::Stage stage, ManagerFactory base,
                             const ConfigKV& config,
                             trace::TraceRecorder* rec) {
  switch (stage) {
    case StackSpec::Stage::kTrace:
      StackSpec::check_knobs(stage, config);
      return [base = std::move(base), rec](gpu::Device& dev,
                                           std::size_t heap) {
        return std::unique_ptr<MemoryManager>(
            std::make_unique<trace::TracingManager>(base(dev, heap), *rec,
                                                    dev.arena()));
      };
    case StackSpec::Stage::kResilient:
      return [base = std::move(base),
              spec = stage_spec<ResilienceSpec>(config)](gpu::Device& dev,
                                                         std::size_t heap) {
        return std::unique_ptr<MemoryManager>(
            std::make_unique<alloc_core::ResilientManager>(dev, heap, base,
                                                           spec));
      };
    case StackSpec::Stage::kValidate:
      StackSpec::check_knobs(stage, config);
      return [base = std::move(base)](gpu::Device& dev, std::size_t heap) {
        return std::unique_ptr<MemoryManager>(
            std::make_unique<ValidatingManager>(dev, heap, base));
      };
    case StackSpec::Stage::kFault:
      return [base = std::move(base), spec = stage_spec<FaultSpec>(config)](
                 gpu::Device& dev, std::size_t heap) {
        return std::unique_ptr<MemoryManager>(
            std::make_unique<FaultInjector>(base(dev, heap), spec));
      };
    case StackSpec::Stage::kWarpAgg:
      return [base = std::move(base), spec = stage_spec<WarpAggSpec>(config)](
                 gpu::Device& dev, std::size_t heap) {
        return std::unique_ptr<MemoryManager>(
            std::make_unique<alloc_core::WarpAggregator>(base(dev, heap),
                                                         spec, dev));
      };
  }
  return base;  // every Stage is handled above
}

}  // namespace

BuiltStack StackBuilder::build(std::string_view spec,
                               std::size_t heap_bytes) const {
  return build(StackSpec::parse(spec), heap_bytes);
}

BuiltStack StackBuilder::build(const StackSpec& spec,
                               std::size_t heap_bytes) const {
  // Throws on an unknown base and on "{k=v}" its schema refuses, before
  // any arena state changes.
  Registry::instance().check_config(spec.base, spec.base_config);
  const auto* entry = Registry::instance().find(spec.base);
  if (heap_bytes > dev_->arena().size()) {
    throw std::invalid_argument{"heap larger than device arena"};
  }

  BuiltStack out;
  if (spec.has(StackSpec::Stage::kTrace)) {
    out.recorder =
        std::make_unique<trace::TraceRecorder>(dev_->config().num_sms);
  }

  // Compose innermost-first: the stage closest to the base wraps first.
  // A "{k=v}" suffix on the base swaps in a configured factory.
  ManagerFactory f = spec.base_config.empty()
                         ? entry->factory
                         : entry->config->configured_factory(spec.base_config);
  for (auto it = spec.stages.rbegin(); it != spec.stages.rend(); ++it) {
    f = stage_factory(it->stage, std::move(f), it->config,
                      out.recorder.get());
  }

  dev_->arena().clear();  // identical cold start for every manager
  out.manager = f(*dev_, heap_bytes);

  // Harvest borrowed layer pointers by walking the chain outermost-in, and
  // point every marker-emitting layer at the recorder (null without a trace
  // stage): recovery, aggregation and placement markers land in the
  // recording, outside the digest.
  trace::MarkerSink* const sink = out.recorder.get();
  MemoryManager* m = out.manager.get();
  for (;;) {
    if (auto* t = dynamic_cast<trace::TracingManager*>(m)) {
      out.tracer = t;
      m = &t->inner();
    } else if (auto* fi = dynamic_cast<FaultInjector*>(m)) {
      out.injector = fi;
      m = &fi->inner();
    } else if (auto* v = dynamic_cast<ValidatingManager*>(m)) {
      out.validator = v;
      m = &v->inner();
    } else if (auto* w = dynamic_cast<alloc_core::WarpAggregator*>(m)) {
      out.aggregator = w;
      w->set_marker_sink(sink);
      m = &w->inner();
    } else if (auto* r = dynamic_cast<alloc_core::ResilientManager*>(m)) {
      out.resilient = r;
      r->set_marker_sink(sink);
      m = &r->inner();
    } else {
      break;
    }
  }
  out.base = m;
  if (auto* host = dynamic_cast<hostalloc::HostManagerBase*>(m)) {
    host->set_marker_sink(sink);  // host-based bases mark their placements
  }
  // Trace and fault layers pass their inner name through; every other
  // layer appends its suffix, so the outermost name spells the stack.
  out.name = std::string(out.manager->traits().name);

  if (out.recorder != nullptr) dev_->set_launch_observer(out.recorder.get());
  return out;
}

StackCell::StackCell(const StackSpec& spec, std::size_t heap_bytes,
                     unsigned num_sms, double watchdog_ms)
    : dev_(heap_bytes + kArenaSlackBytes,
           gpu::GpuConfig{.num_sms = num_sms,
                          .lane_stack_bytes = 32 * 1024,
                          .watchdog_ms = watchdog_ms}),
      stack_(StackBuilder(dev_).build(spec, heap_bytes)),
      heap_bytes_(heap_bytes) {
  dev_.launch(num_sms * 2, 256, [](gpu::ThreadCtx&) {});  // warm-up
}

StackCell::~StackCell() {
  // The recorder (if any) dies with stack_: no launch may reach it after.
  dev_.set_launch_observer(nullptr);
}

}  // namespace gms::core
