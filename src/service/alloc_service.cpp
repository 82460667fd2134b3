#include "service/alloc_service.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/alloc_config.h"

namespace gms::service {

namespace {
/// thread_rank value for shard-scoped markers that have no tenant
/// (half-open probe resets).
constexpr std::uint32_t kNoTenant = 0xFFFFFFFFu;
}  // namespace

AllocService::AllocService(ServiceSpec spec)
    : spec_(spec),
      health_(spec.num_devices, spec.health_threshold, spec.health_decay),
      policy_(spec.placement, spec.seed) {
  // Quarantine forks FIRST: at this point the process has no in-process
  // Device (no SM worker threads), so the child is a clean single-threaded
  // image. Only after it exists do the real shards come up.
  if (spec_.quarantine) {
    auto qopts = spec_.device;
    qopts.forked = true;
    quarantine_ = std::make_unique<DeviceShard>(spec_.num_devices, qopts);
  }
  shards_.reserve(spec_.num_devices);
  for (unsigned i = 0; i < spec_.num_devices; ++i) {
    shards_.push_back(std::make_unique<DeviceShard>(i, spec_.device));
  }
}

AllocService::~AllocService() = default;

void AllocService::add_tenant(const TenantSpec& spec) {
  auto [it, inserted] = tenants_.try_emplace(spec.id);
  if (!inserted) {
    throw std::invalid_argument{"duplicate tenant id " +
                                std::to_string(spec.id)};
  }
  auto& t = it->second;
  t.spec = spec;
  t.bucket_tokens = spec.bucket_capacity;
  t.report.tenant = spec.id;
}

void AllocService::add_default_tenants(std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    add_tenant(TenantSpec{.id = i,
                          .priority = i,
                          .byte_quota = spec_.quota.byte_quota,
                          .op_quota = spec_.quota.op_quota,
                          .bucket_capacity = spec_.quota.bucket_capacity,
                          .bucket_refill = spec_.quota.bucket_refill});
  }
}

std::uint64_t AllocService::submit(std::uint32_t tenant,
                                   std::vector<AllocOp> ops) {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    throw std::invalid_argument{"submit for unregistered tenant " +
                                std::to_string(tenant)};
  }
  auto& t = it->second;
  Batch b;
  b.tenant = tenant;
  const auto seq = t.next_seq++;
  b.tenant_seq = seq;
  b.ops = std::move(ops);
  t.report.submitted_batches++;
  t.queue.push_back(std::move(b));
  return seq;
}

void AllocService::arm_kill(unsigned shard, std::uint64_t after_batches) {
  if (shard >= shards_.size()) {
    throw std::invalid_argument{"arm_kill on unknown shard"};
  }
  kill_hooks_.push_back(KillHook{shard, after_batches, false});
}

void AllocService::emit(trace::EventKind kind, std::uint32_t tenant,
                        std::uint32_t shard, std::uint64_t size,
                        std::uint64_t offset) {
  trace::TraceEvent ev;
  ev.seq = event_seq_++;
  ev.t_ns = ev.seq * 100;  // deterministic clock: sequence IS the time
  ev.size = size;
  ev.offset = offset;
  ev.thread_rank = tenant;
  ev.block = shard;
  ev.kernel_seq = static_cast<std::uint32_t>(round_);
  ev.kind = static_cast<std::uint8_t>(kind);
  events_.push_back(ev);
}

void AllocService::fire_kill_hooks() {
  for (auto& hook : kill_hooks_) {
    if (hook.fired) continue;
    if (shards_[hook.shard]->completed_batches() >= hook.after_batches) {
      shards_[hook.shard]->kill();
      hook.fired = true;
      ++kills_fired_;
    }
  }
}

void AllocService::run_probes() {
  for (unsigned s = 0; s < shards_.size(); ++s) {
    if (health_.routable(s)) continue;
    if (!health_.probe_ticket(s)) continue;
    auto& shard = *shards_[s];
    if (!shard.alive() && !shard.respawn()) {
      health_.record(s, core::Verdict::kCrash);
      continue;
    }
    // Empty-batch probe: one round-trip through the full execution path
    // (pipe protocol or launch machinery) without touching any heap.
    Batch probe;
    probe.tenant = kNoTenant;
    const auto res = shard.execute(probe);
    if (res.verdict == core::Verdict::kOk) {
      if (health_.revive(s)) {
        emit(trace::EventKind::kShardHealthReset, kNoTenant, s, 0, round_);
        // A real device is back: the next total outage is a new engage.
        quarantine_engaged_ = false;
      }
    } else {
      health_.record(s, res.verdict);
      if (!shard.alive()) health_.mark_dead(s);
    }
  }
}

std::uint64_t AllocService::batch_alloc_bytes(const Batch& b) {
  std::uint64_t bytes = 0;
  for (const auto& op : b.ops) {
    if (op.kind == AllocOp::Kind::kMalloc) bytes += op.size;
  }
  return bytes;
}

bool AllocService::route_tenant(std::uint32_t id, TenantState& t) {
  const auto healthy = health_.healthy_shards();
  if (!healthy.empty()) {
    const unsigned ns = policy_.pick(id, healthy, t.reshard_gen);
    if (t.placed && (t.quarantined || t.shard != ns ||
                     !health_.routable(t.shard))) {
      // Moving off a lost/drained/quarantine device: its slots are gone
      // from the tenant's point of view, so outstanding bytes become lost
      // bytes and later frees against them will orphan on the new shard.
      emit(trace::EventKind::kTenantReshard, id, ns, 0,
           (std::uint64_t{t.shard} << 32) | ns);
      t.report.reshards++;
      t.reshard_gen++;
      t.report.lost_bytes += t.report.outstanding_bytes;
      t.report.outstanding_bytes = 0;
      t.quarantined = false;
    }
    t.shard = ns;
    t.placed = true;
    return true;
  }
  if (quarantine_ != nullptr && quarantine_->alive()) {
    const unsigned qid = spec_.num_devices;
    if (!quarantine_engaged_) {
      quarantine_engaged_ = true;
      ++quarantine_engages_;
      emit(trace::EventKind::kQuarantineEngage, id, qid, 0, 0);
    }
    if (t.placed && !t.quarantined) {
      emit(trace::EventKind::kTenantReshard, id, qid, 0,
           (std::uint64_t{t.shard} << 32) | qid);
      t.report.reshards++;
      t.reshard_gen++;
      t.report.lost_bytes += t.report.outstanding_bytes;
      t.report.outstanding_bytes = 0;
    }
    t.shard = qid;
    t.quarantined = true;
    t.placed = true;
    return true;
  }
  return false;
}

ServiceReport AllocService::run_until_drained() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t batches_executed = 0;
  std::vector<double> batch_ms;

  auto queues_pending = [&] {
    return std::any_of(tenants_.begin(), tenants_.end(),
                       [](const auto& kv) { return !kv.second.queue.empty(); });
  };

  while (queues_pending() && round_ < spec_.max_rounds) {
    ++round_;
    fire_kill_hooks();
    run_probes();

    // --- admission (tenant-id ascending; one batch per tenant per round) --
    struct Candidate {
      std::uint32_t tenant;
      std::uint64_t nops;
      std::uint32_t priority;
      bool retry;  ///< already admitted; exempt from budget and buckets
    };
    std::vector<Candidate> cands;
    for (auto& [id, t] : tenants_) {
      t.bucket_tokens = std::min(t.spec.bucket_capacity,
                                 t.bucket_tokens + t.spec.bucket_refill);
      if (t.queue.empty()) continue;
      const Batch& front = t.queue.front();
      const auto nops = static_cast<std::uint64_t>(front.ops.size());
      if (t.front_attempts > 0) {
        cands.push_back({id, nops, t.spec.priority, true});
        continue;
      }
      if (t.spec.op_quota != 0 &&
          t.ops_admitted + nops > t.spec.op_quota) {
        t.report.quota_rejected_batches++;
        emit(trace::EventKind::kQuotaReject, id, t.shard,
             batch_alloc_bytes(front), t.report.outstanding_bytes);
        t.queue.pop_front();
        continue;
      }
      const auto ask_bytes = batch_alloc_bytes(front);
      if (t.spec.byte_quota != 0 &&
          t.report.outstanding_bytes + ask_bytes > t.spec.byte_quota) {
        t.report.quota_rejected_batches++;
        emit(trace::EventKind::kQuotaReject, id, t.shard, ask_bytes,
             t.report.outstanding_bytes);
        t.queue.pop_front();
        continue;
      }
      if (t.spec.bucket_capacity != 0 && t.bucket_tokens < nops) {
        t.report.shed_batches++;
        emit(trace::EventKind::kTenantShed, id, t.shard, nops,
             t.bucket_tokens);
        t.queue.pop_front();
        continue;
      }
      cands.push_back({id, nops, t.spec.priority, false});
    }

    // --- round op budget: shed lowest priority first, ties on id ---------
    if (spec_.quota.round_budget_ops != 0) {
      std::uint64_t budget_ops = 0;
      for (const auto& c : cands) {
        if (!c.retry) budget_ops += c.nops;
      }
      if (budget_ops > spec_.quota.round_budget_ops) {
        std::vector<std::size_t> order(cands.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](std::size_t a,
                                                  std::size_t b) {
          if (cands[a].priority != cands[b].priority) {
            return cands[a].priority < cands[b].priority;
          }
          return cands[a].tenant < cands[b].tenant;
        });
        std::vector<bool> shed(cands.size(), false);
        for (const auto i : order) {
          if (budget_ops <= spec_.quota.round_budget_ops) break;
          if (cands[i].retry) continue;
          shed[i] = true;
          budget_ops -= cands[i].nops;
          auto& t = tenants_.at(cands[i].tenant);
          t.report.shed_batches++;
          emit(trace::EventKind::kTenantShed, cands[i].tenant, t.shard,
               cands[i].nops, t.bucket_tokens);
          t.queue.pop_front();
        }
        std::vector<Candidate> kept;
        for (std::size_t i = 0; i < cands.size(); ++i) {
          if (!shed[i]) kept.push_back(cands[i]);
        }
        cands.swap(kept);
      }
    }

    // --- routing (+ commit bucket/op-quota charges for fresh admits) -----
    std::map<unsigned, std::vector<std::uint32_t>> groups;  // shard asc
    for (const auto& c : cands) {
      auto& t = tenants_.at(c.tenant);
      const bool on_good_shard =
          t.placed && ((t.quarantined && health_.healthy_shards().empty()) ||
                       (!t.quarantined && health_.routable(t.shard)));
      if (!on_good_shard && !route_tenant(c.tenant, t)) {
        // Nothing routable, not even quarantine: burns one attempt so a
        // permanent outage converges to unrecovered instead of spinning.
        t.front_attempts++;
        if (t.front_attempts > spec_.batch_retries) {
          t.report.unrecovered_batches++;
          t.queue.pop_front();
          t.front_attempts = 0;
        } else {
          t.report.retries++;
          emit(trace::EventKind::kBatchRetry, c.tenant, t.shard,
               t.front_attempts, t.queue.front().tenant_seq);
        }
        continue;
      }
      if (!c.retry) {
        t.ops_admitted += c.nops;
        if (t.spec.bucket_capacity != 0) t.bucket_tokens -= c.nops;
      }
      groups[t.shard].push_back(c.tenant);
    }

    // --- execution: one worker per shard, round barrier ------------------
    struct Outcome {
      unsigned shard;
      std::uint32_t tenant;
      BatchResult result;
    };
    std::vector<std::vector<Outcome>> per_group(groups.size());
    {
      std::vector<std::thread> workers;
      std::size_t gi = 0;
      for (const auto& [shard_id, tenant_ids] : groups) {
        auto& out = per_group[gi++];
        out.reserve(tenant_ids.size());
        DeviceShard* shard = shard_id == spec_.num_devices
                                 ? quarantine_.get()
                                 : shards_[shard_id].get();
        workers.emplace_back([this, shard, shard_id = shard_id,
                              &tenant_ids, &out] {
          for (const auto tid : tenant_ids) {
            const Batch& b = tenants_.at(tid).queue.front();
            out.push_back({shard_id, tid, shard->execute(b)});
          }
        });
      }
      for (auto& w : workers) w.join();
    }

    // --- fold results in (shard asc, tenant asc) order -------------------
    for (const auto& group : per_group) {
      for (const auto& o : group) {
        auto& t = tenants_.at(o.tenant);
        const bool is_quarantine = o.shard == spec_.num_devices;
        const auto& r = o.result;
        batch_ms.push_back(r.ms);
        if (!is_quarantine) {
          if (health_.record(o.shard, r.verdict)) {
            emit(trace::EventKind::kShardHealthTrip, o.tenant, o.shard, 0,
                 health_.consecutive_failures(o.shard));
          }
          if (r.verdict != core::Verdict::kOk &&
              !shards_[o.shard]->alive()) {
            health_.mark_dead(o.shard);
          }
        }
        if (r.verdict == core::Verdict::kOk) {
          t.report.completed_batches++;
          ++batches_executed;
          t.report.ops_ok += r.ops_ok;
          t.report.ops_failed += r.ops_failed;
          t.report.orphaned_frees += r.orphaned_frees;
          t.report.outstanding_bytes += r.bytes_allocated;
          t.report.outstanding_bytes -=
              std::min(t.report.outstanding_bytes, r.bytes_freed);
          t.queue.pop_front();
          t.front_attempts = 0;
        } else {
          t.front_attempts++;
          if (t.front_attempts > spec_.batch_retries) {
            t.report.unrecovered_batches++;
            t.queue.pop_front();
            t.front_attempts = 0;
          } else {
            t.report.retries++;
            emit(trace::EventKind::kBatchRetry, o.tenant, o.shard,
                 t.front_attempts, t.queue.front().tenant_seq);
          }
        }
      }
    }
  }

  // Round cap tripped with work left: everything still queued is
  // unrecovered — reported, never silently dropped.
  for (auto& [id, t] : tenants_) {
    while (!t.queue.empty()) {
      t.report.unrecovered_batches++;
      t.queue.pop_front();
    }
    t.front_attempts = 0;
  }

  ServiceReport rep;
  for (const auto& [id, t] : tenants_) rep.tenants[id] = t.report;
  rep.rounds = round_;
  rep.batches_executed = batches_executed;
  for (unsigned s = 0; s < shards_.size(); ++s) {
    rep.health_trips += health_.trips(s);
    rep.health_resets += health_.resets(s);
  }
  rep.quarantine_engages = quarantine_engages_;
  rep.kills_fired = kills_fired_;
  rep.batch_ms = std::move(batch_ms);
  rep.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  rep.rollup = trace::roll_up_tenants(events_);
  return rep;
}

const core::ConfigSchema<ServiceReport>& ServiceReport::schema() {
  static const auto schema = [] {
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    core::ConfigSchema<ServiceReport> s;
    s.u64("rounds", &ServiceReport::rounds, 0, kMax)
        .u64("batches_executed", &ServiceReport::batches_executed, 0, kMax)
        .u64("health_trips", &ServiceReport::health_trips, 0, kMax)
        .u64("health_resets", &ServiceReport::health_resets, 0, kMax)
        .u64("quarantine_engages", &ServiceReport::quarantine_engages, 0,
             kMax)
        .u64("kills_fired", &ServiceReport::kills_fired, 0, kMax)
        .dbl("wall_ms", &ServiceReport::wall_ms, 0,
             std::numeric_limits<double>::max());
    return s;
  }();
  return schema;
}

std::string ServiceReport::to_string() const {
  std::string s = "[service] " + core::format_config(schema().serialize(*this));
  for (const auto& [id, rep] : tenants) s += "\n  " + rep.to_string();
  return s;
}

}  // namespace gms::service
