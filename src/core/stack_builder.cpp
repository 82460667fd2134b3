// Compiled into gms_trace (not gms_core): the trace stage constructs
// TracingManager, which lives a layer above the core library. Everything
// else the builder touches (registry, validator, injector, aggregator) is
// visible from there without a dependency cycle. The layers below gms_trace
// that emit markers (resilient, warpagg, the host-based bases) hold a
// header-only trace::MarkerSink; build() points it at the stack's recorder.
#include "core/stack_builder.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "alloc_core/resilient_manager.h"
#include "alloc_core/warp_aggregator.h"
#include "core/validating_manager.h"
#include "hostalloc/host_manager.h"
#include "trace/trace_recorder.h"
#include "trace/tracing_manager.h"

namespace gms::core {

namespace {

constexpr std::string_view kStageNames[] = {"trace", "fault", "validate",
                                            "warpagg", "resilient"};

/// The typed knobs of one stage token: `overrides` applied over the
/// stage's defaults through its schema (throws ConfigError).
template <typename Spec>
Spec stage_spec(const ConfigKV& overrides) {
  return Spec::config_schema().parse(overrides, Spec{});
}

/// trace and validate have no knobs: any override is a typed error.
void reject_config(StackSpec::Stage stage, const ConfigKV& overrides) {
  if (overrides.empty()) return;
  const std::string name(StackSpec::stage_name(stage));
  throw ConfigError(ConfigError::Kind::kNotConfigurable, name,
                    "stack stage '" + name + "' takes no config overrides");
}

}  // namespace

std::string_view StackSpec::stage_name(Stage s) {
  return kStageNames[static_cast<std::uint8_t>(s)];
}

bool StackSpec::has(Stage s) const {
  for (const Layer& l : stages) {
    if (l.stage == s) return true;
  }
  return false;
}

std::string StackSpec::to_string() const {
  std::string out;
  for (const Layer& l : stages) {
    out += std::string(stage_name(l.stage)) + format_config(l.config) + ">";
  }
  if (base.empty() && !out.empty()) out.pop_back();  // stage-only spec
  return out + base + format_config(base_config);
}

StackSpec StackSpec::parse(std::string_view spec) {
  StackSpec out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto gt = spec.find('>', pos);
    const auto tok = spec.substr(
        pos, gt == std::string_view::npos ? spec.size() - pos : gt - pos);
    const bool last = gt == std::string_view::npos;
    if (tok.empty()) {
      throw std::invalid_argument{"empty token in stack spec: \"" +
                                  std::string(spec) + "\""};
    }
    const auto [name, braced] = split_config_suffix(tok);
    const auto* stage_it = std::find(std::begin(kStageNames),
                                     std::end(kStageNames), name);
    if (stage_it != std::end(kStageNames)) {
      const auto stage =
          static_cast<Stage>(stage_it - std::begin(kStageNames));
      if (out.has(stage)) {
        throw std::invalid_argument{"duplicate stack stage: " +
                                    std::string(name)};
      }
      out.stages.push_back({stage, parse_config_overrides(braced)});
      // Validate now: a bad knob fails the parse, not a later build.
      if (stage == Stage::kTrace) {
        reject_config(stage, out.stages.back().config);
      } else {
        (void)StackBuilder::stage_factory(stage, {}, out.stages.back().config);
      }
    } else {
      if (!last) {
        throw std::invalid_argument{
            "unknown stack stage: " + std::string(tok) +
            " (expected trace|fault|validate|warpagg|resilient)"};
      }
      out.base = std::string(name);
      out.base_config = parse_config_overrides(braced);
    }
    if (last) break;
    pos = gt + 1;
  }
  return out;
}

ManagerFactory StackBuilder::stage_factory(StackSpec::Stage stage,
                                           ManagerFactory base,
                                           const ConfigKV& config) {
  switch (stage) {
    case StackSpec::Stage::kResilient:
      return [base = std::move(base),
              spec = stage_spec<ResilienceSpec>(config)](gpu::Device& dev,
                                                         std::size_t heap) {
        return std::unique_ptr<MemoryManager>(
            std::make_unique<alloc_core::ResilientManager>(dev, heap, base,
                                                           spec));
      };
    case StackSpec::Stage::kValidate:
      reject_config(stage, config);
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
    case StackSpec::Stage::kTrace:
      break;
  }
  throw std::invalid_argument{
      "the trace stage needs a recorder and cannot be a twin factory"};
}

BuiltStack StackBuilder::build(std::string_view spec,
                               std::size_t heap_bytes) const {
  return build(StackSpec::parse(spec), heap_bytes);
}

BuiltStack StackBuilder::build(const StackSpec& spec,
                               std::size_t heap_bytes) const {
  const auto* entry = Registry::instance().find(spec.base);
  if (entry == nullptr) {
    throw std::invalid_argument{"unknown allocator: " + spec.base};
  }
  if (heap_bytes > dev_->arena().size()) {
    throw std::invalid_argument{"heap larger than device arena"};
  }

  BuiltStack out;
  if (spec.has(StackSpec::Stage::kTrace)) {
    out.recorder =
        std::make_unique<trace::TraceRecorder>(dev_->config().num_sms);
  }

  // Compose innermost-first: the stage closest to the base wraps first.
  // A "{k=v}" suffix on the base swaps in a configured factory (validated
  // eagerly, before any arena state changes).
  ManagerFactory f = entry->factory;
  if (!spec.base_config.empty()) {
    if (entry->config == nullptr) {
      throw ConfigError(ConfigError::Kind::kNotConfigurable, spec.base,
                        "allocator '" + spec.base +
                            "' takes no config overrides");
    }
    f = entry->config->configured_factory(spec.base_config);
  }
  for (auto it = spec.stages.rbegin(); it != spec.stages.rend(); ++it) {
    if (it->stage == StackSpec::Stage::kTrace) {
      reject_config(it->stage, it->config);
      f = [inner = std::move(f), rec = out.recorder.get()](
              gpu::Device& dev, std::size_t heap) {
        return std::unique_ptr<MemoryManager>(
            std::make_unique<trace::TracingManager>(inner(dev, heap), *rec,
                                                    dev.arena()));
      };
    } else {
      f = stage_factory(it->stage, std::move(f), it->config);
    }
  }

  dev_->arena().clear();  // identical cold start, like Registry::make
  out.manager = f(*dev_, heap_bytes);

  // Harvest borrowed layer pointers + the stack's identity name by walking
  // the chain outermost-in, and point every marker-emitting layer at the
  // recorder (null without a trace stage): recovery, aggregation and
  // placement markers land in the recording, outside the digest.
  trace::MarkerSink* const sink = out.recorder.get();
  MemoryManager* m = out.manager.get();
  while (m != nullptr) {
    if (auto* t = dynamic_cast<trace::TracingManager*>(m)) {
      if (out.tracer == nullptr) out.tracer = t;
      m = &t->inner();
    } else if (auto* fi = dynamic_cast<FaultInjector*>(m)) {
      if (out.injector == nullptr) out.injector = fi;
      m = &fi->inner();
    } else if (auto* v = dynamic_cast<ValidatingManager*>(m)) {
      if (out.validator == nullptr) out.validator = v;
      if (out.name.empty()) out.name = std::string(v->traits().name);
      m = &v->inner();
    } else if (auto* w = dynamic_cast<alloc_core::WarpAggregator*>(m)) {
      if (out.aggregator == nullptr) out.aggregator = w;
      if (out.name.empty()) out.name = std::string(w->traits().name);
      w->set_marker_sink(sink);
      m = &w->inner();
    } else if (auto* r = dynamic_cast<alloc_core::ResilientManager*>(m)) {
      if (out.resilient == nullptr) out.resilient = r;
      if (out.name.empty()) out.name = std::string(r->traits().name);
      r->set_marker_sink(sink);
      m = &r->inner();
    } else {
      // `m` is the base manager; host-based bases mark their placements.
      out.host = dynamic_cast<hostalloc::HostManagerBase*>(m);
      if (out.host != nullptr) out.host->set_marker_sink(sink);
      break;
    }
  }
  if (out.name.empty()) out.name = std::string(entry->traits.name);

  if (out.recorder != nullptr) dev_->set_launch_observer(out.recorder.get());
  return out;
}

}  // namespace gms::core
