#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "keepalive/pool.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/workload.hpp"

/// Trace-driven keep-alive evaluation (the paper's Figs 4, 5 and 8): replay
/// an Azure-derived trace through the worker's own ContainerPool under a
/// given policy and server memory size, and report cold-start fraction and
/// the increase in execution time caused by cold starts.
namespace ilu {

/// A SimRuntime plus the worker's ContainerPool, driven straight from a
/// trace: no queue, CPU model or backend, so an invocation runs for exactly
/// its profile's warm time (plus init time when cold). Busy containers pin
/// memory, the pool evicts on the cold-start path when memory is short, and
/// its background sweep expires containers once a minute — the pool's
/// keep-alive semantics, including stamping last use when a container comes
/// back. HIST prewarms arrive through the pool's prewarm requester and,
/// unlike the worker's, never evict: they only use free memory.
class KeepAliveReplay {
 public:
  struct Outcome {
    bool warm = false;
    bool dropped = false;
    /// Execution time: warm_time, plus init_time on a cold start.
    Duration exec{};
  };

  struct Stats {
    std::uint64_t invocations = 0;
    std::uint64_t warm_starts = 0;
    std::uint64_t cold_starts = 0;
    std::uint64_t dropped = 0;
    std::uint64_t evictions = 0;       // capacity-pressure evictions
    std::uint64_t expirations = 0;     // TTL/HIST expiry removals
    std::uint64_t prewarm_creates = 0;
    Duration total_base_exec{};
    Duration total_init_paid{};

    double cold_fraction() const {
      std::uint64_t served = warm_starts + cold_starts;
      if (served == 0) return 0.0;
      return static_cast<double>(cold_starts) / static_cast<double>(served);
    }
    /// The paper's "increase in execution time due to cold starts",
    /// averaged across all invocations, in percent.
    double exec_increase_pct() const {
      if (total_base_exec <= Duration::zero()) return 0.0;
      return 100.0 * static_cast<double>(total_init_paid.count()) /
             static_cast<double>(total_base_exec.count());
    }
  };

  /// Reads `functions` (usually the trace's own table) by reference; it
  /// must outlive the replay, so a temporary is refused at compile time.
  KeepAliveReplay(KeepAlivePolicy& policy, std::uint64_t capacity_mb,
                  const std::vector<FunctionProfile>& functions);
  KeepAliveReplay(KeepAlivePolicy& policy, std::uint64_t capacity_mb,
                  std::vector<FunctionProfile>&& functions) = delete;

  KeepAliveReplay(const KeepAliveReplay&) = delete;
  KeepAliveReplay& operator=(const KeepAliveReplay&) = delete;

  /// Run every release, sweep and prewarm due at or before t.
  void advance_to(TimePoint t);

  /// Serve an invocation arriving at time t (t must be non-decreasing
  /// across calls). Advances to t first.
  Outcome on_invocation(FunctionId fn, TimePoint t);

  /// The pool under replay; the Fig 8 controller resizes it.
  ContainerPool& pool() { return pool_; }

  Stats stats() const;

 private:
  void prewarm(FunctionId fn);

  SimRuntime rt_;
  KeepAlivePolicy& policy_;
  const std::vector<FunctionProfile>& functions_;
  ContainerPool pool_;
  /// Per function: a policy-requested prewarm is already scheduled.
  std::vector<bool> prewarm_pending_;
  Stats stats_;
};

struct KeepAliveSimResult {
  std::string policy;
  std::uint64_t capacity_mb = 0;
  KeepAliveReplay::Stats stats;

  double cold_fraction() const { return stats.cold_fraction(); }
  double exec_increase_pct() const { return stats.exec_increase_pct(); }
};

/// Replay `trace` under a fresh policy instance named `policy_name`.
KeepAliveSimResult run_keepalive_sim(const Trace& trace,
                                     const std::string& policy_name,
                                     std::uint64_t capacity_mb);

/// Replay under a caller-provided policy instance (needed for policies that
/// cannot be built by name, e.g. the clairvoyant oracle which requires the
/// trace at construction).
KeepAliveSimResult run_keepalive_sim_with(const Trace& trace,
                                          KeepAlivePolicy& policy,
                                          std::uint64_t capacity_mb);

}  // namespace ilu
