#pragma once

#include <unordered_map>
#include <vector>

#include "keepalive/policy.hpp"
#include "trace/workload.hpp"

/// Clairvoyant (Belady-style) keep-alive policy: evicts the container whose
/// function is next needed furthest in the future, using perfect knowledge
/// of the trace. Offline-optimal for uniform sizes/costs (size- and
/// cost-aware offline caching is NP-hard, which the paper notes via
/// [bender1998flow] for the queueing analogue), so this is the standard
/// upper-bound *reference* for the online policies in the simulator — a
/// research-platform feature, not something a real control plane can run.
/// Replay it with run_keepalive_sim_with (keepalive/simulator.hpp).
namespace ilu {

class ClairvoyantPolicy final : public KeepAlivePolicy {
 public:
  /// Builds per-function future-arrival indices from the trace. The policy
  /// must then observe every invocation via on_invocation (the trace
  /// replay does this) so its "now cursor" stays in sync.
  explicit ClairvoyantPolicy(const Trace& trace);

  std::string name() const override { return "ORACLE"; }
  void on_access(CacheEntry&, TimePoint) override {}
  void on_invocation(FunctionId fn, TimePoint now) override;
  double eviction_rank(const CacheEntry& e) const override;

  /// Next arrival of `fn` strictly after the last observed invocation of
  /// it; TimePoint::max-like sentinel when none remain.
  TimePoint next_use(FunctionId fn) const;

 private:
  struct FnFuture {
    std::vector<TimePoint> arrivals;
    std::size_t cursor = 0;  // index of the next not-yet-observed arrival
  };
  std::unordered_map<FunctionId, FnFuture> future_;
};

}  // namespace ilu
