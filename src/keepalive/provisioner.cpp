#include "keepalive/provisioner.hpp"

#include <algorithm>
#include <cmath>

#include "keepalive/policy.hpp"

namespace ilu {

Provisioner::Provisioner(ContainerPool& pool, ProvisionerConfig cfg)
    : pool_(pool), cfg_(cfg), misses_(cfg.window), next_eval_(cfg.interval) {
  pool_.set_capacity_mb(cfg_.initial_capacity_mb);
}

void Provisioner::record_miss(TimePoint t) { misses_.record(t); }

void Provisioner::maybe_adjust(TimePoint now) {
  while (next_eval_ <= now) {
    TimePoint at = next_eval_;
    next_eval_ += cfg_.interval;
    double miss_rate = misses_.rate_per_sec(at);
    double rel_error =
        (miss_rate - cfg_.target_miss_rate) / cfg_.target_miss_rate;
    ProvisionSample s;
    s.at = at;
    s.miss_rate = miss_rate;
    s.capacity_mb = pool_.capacity_mb();
    if (std::abs(rel_error) > cfg_.error_tolerance) {
      // Too many misses -> grow the cache; too few -> reclaim memory.
      double factor = 1.0 + cfg_.gain * std::clamp(rel_error, -2.0, 2.0);
      auto new_cap = static_cast<std::uint64_t>(
          static_cast<double>(pool_.capacity_mb()) * factor);
      new_cap = std::clamp(new_cap, cfg_.min_capacity_mb,
                           cfg_.max_capacity_mb);
      if (new_cap != pool_.capacity_mb()) {
        pool_.set_capacity_mb(new_cap);
        s.resized = true;
        s.capacity_mb = new_cap;
      }
    }
    samples_.push_back(s);
  }
}

double Provisioner::average_capacity_mb() const {
  if (samples_.empty()) return static_cast<double>(pool_.capacity_mb());
  double sum = 0.0;
  for (const auto& s : samples_) sum += static_cast<double>(s.capacity_mb);
  return sum / static_cast<double>(samples_.size());
}

DynamicProvisioningResult run_dynamic_provisioning(
    const Trace& trace, const std::string& policy_name,
    ProvisionerConfig cfg) {
  auto policy = make_policy(policy_name);
  KeepAliveReplay replay(*policy, cfg.initial_capacity_mb, trace.functions);
  Provisioner prov(replay.pool(), cfg);

  for (const auto& e : trace.events) {
    prov.maybe_adjust(e.at);
    // Drops count as misses too: a request a starved pool turns away must
    // push the controller toward growing, not read as "no cold starts".
    if (!replay.on_invocation(e.fn, e.at).warm) prov.record_miss(e.at);
  }
  if (trace.duration > Duration::zero()) {
    prov.maybe_adjust(trace.duration);
    replay.advance_to(trace.duration);
  }

  DynamicProvisioningResult r;
  r.timeseries = prov.samples();
  r.stats = replay.stats();
  r.average_capacity_mb = prov.average_capacity_mb();
  r.static_capacity_mb = cfg.initial_capacity_mb;
  return r;
}

}  // namespace ilu
