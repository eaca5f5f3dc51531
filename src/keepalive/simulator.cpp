#include "keepalive/simulator.hpp"

#include <algorithm>

namespace ilu {

KeepAliveReplay::KeepAliveReplay(KeepAlivePolicy& policy,
                                 std::uint64_t capacity_mb,
                                 const std::vector<FunctionProfile>& functions)
    : policy_(policy),
      functions_(functions),
      pool_(rt_, policy,
            ContainerPool::Config{.capacity_mb = capacity_mb,
                                  .free_buffer_mb = 0,
                                  .sweep_interval = mins(1)},
            nullptr),
      prewarm_pending_(functions_.size(), false) {
  pool_.set_prewarm_requester([this](FunctionId fn, TimePoint at) {
    if (prewarm_pending_[fn]) return;
    prewarm_pending_[fn] = true;
    Duration delay = at > rt_.now() ? at - rt_.now() : Duration::zero();
    rt_.schedule(delay, [this, fn] {
      prewarm_pending_[fn] = false;
      prewarm(fn);
    });
  });
  pool_.start();
}

void KeepAliveReplay::prewarm(FunctionId fn) {
  const FunctionProfile& p = functions_[fn];
  // Prewarms are opportunistic: they never evict other containers.
  if (pool_.has_idle(fn) || pool_.used_mb() + p.mem_mb > pool_.capacity_mb()) {
    return;
  }
  ContainerHandle h = pool_.add_container(fn, p, rt_.now());
  pool_.park_prewarmed(h, rt_.now());
  ++stats_.prewarm_creates;
}

void KeepAliveReplay::advance_to(TimePoint t) { rt_.run_until(t); }

KeepAliveReplay::Outcome KeepAliveReplay::on_invocation(FunctionId fn,
                                                        TimePoint t) {
  advance_to(t);
  const FunctionProfile& p = functions_.at(fn);
  policy_.on_invocation(fn, t);
  ++stats_.invocations;

  Outcome out;
  ContainerHandle h = pool_.acquire(fn, t);
  if (h.valid()) {
    out.warm = true;
    out.exec = p.warm_time;
    ++stats_.warm_starts;
  } else {
    h = pool_.add_container(fn, p, t);
    if (!h.valid()) {
      out.dropped = true;
      ++stats_.dropped;
      return out;
    }
    pool_.launch(h, t);
    out.exec = p.cold_time();
    ++stats_.cold_starts;
    stats_.total_init_paid += p.init_time;
  }
  stats_.total_base_exec += p.warm_time;
  rt_.schedule(out.exec, [this, h] { pool_.return_container(h, rt_.now()); });
  return out;
}

KeepAliveReplay::Stats KeepAliveReplay::stats() const {
  Stats s = stats_;
  s.evictions = pool_.evictions();
  s.expirations = pool_.expirations();
  return s;
}

KeepAliveSimResult run_keepalive_sim(const Trace& trace,
                                     const std::string& policy_name,
                                     std::uint64_t capacity_mb) {
  auto policy = make_policy(policy_name);
  return run_keepalive_sim_with(trace, *policy, capacity_mb);
}

KeepAliveSimResult run_keepalive_sim_with(const Trace& trace,
                                          KeepAlivePolicy& policy,
                                          std::uint64_t capacity_mb) {
  KeepAliveReplay replay(policy, capacity_mb, trace.functions);
  for (const auto& e : trace.events) replay.on_invocation(e.fn, e.at);
  TimePoint last = trace.events.empty() ? TimePoint{} : trace.events.back().at;
  replay.advance_to(std::max(trace.duration, last));
  KeepAliveSimResult r;
  r.policy = policy.name();
  r.capacity_mb = capacity_mb;
  r.stats = replay.stats();
  return r;
}

}  // namespace ilu
