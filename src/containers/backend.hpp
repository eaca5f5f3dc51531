#pragma once

#include <string>
#include <unordered_set>

#include "common/types.hpp"
#include "containers/cpu_model.hpp"
#include "runtime/latency.hpp"
#include "runtime/runtime.hpp"

/// Container runtime backends (§4.4). The real system drives containerd (or
/// Docker) over RPC; this testbed models those libraries with latency
/// profiles calibrated from the paper's own measurements, plus the paper's
/// "null"/simulation backend where function execution becomes CPU-model
/// time. The worker is written against the small API the paper advocates:
/// create / launch task (agent) / invoke / destroy.
namespace ilu {

/// Latency characteristics of a containerization library.
struct BackendLatencyProfile {
  std::string name;
  /// Create the sandbox (image mount, cgroups, runc) — excludes netns cost,
  /// which the netns pool accounts for separately.
  LatencyModel create;
  /// Start the in-container agent (python HTTP server boot).
  LatencyModel agent_start;
  /// Destroy the sandbox.
  LatencyModel destroy;

  /// Snapshot-based cold starts (§4.2 cites FaaSnap/REAP-style restore):
  /// after the first container of a function has been created, later cold
  /// starts restore from its snapshot instead of booting from the image.
  bool snapshot_cold_starts = false;
  LatencyModel snapshot_restore = LatencyModel::lognormal(msecs(60), 0.30);

  /// Paper-calibrated profiles: crun ~150 ms, containerd ~300 ms, Docker
  /// ~400 ms cold create; agent boot a few hundred ms on top.
  static BackendLatencyProfile containerd();
  static BackendLatencyProfile docker();
  static BackendLatencyProfile crun();
  /// The "null" backend: no sandbox work at all (pure in-situ simulation of
  /// the control plane).
  static BackendLatencyProfile null_backend();
};

/// Fault injection knobs for backend robustness testing.
struct BackendFaults {
  /// Probability a create fails (image pull error, runc failure).
  double create_failure_prob = 0.0;
  /// Probability an invocation fails inside the container (agent crash).
  double invoke_failure_prob = 0.0;
};

/// The container backend, continuation-passing like the rest of the control
/// plane: create / invoke / destroy. Create and destroy are latency
/// samples, execution is time on the shared CpuModel. With the null profile
/// this is exactly the paper's in-situ simulation; with the
/// containerd/docker profiles it is the calibrated stand-in for the real
/// library.
///
/// Each continuation is captured by value inside the scheduled Task, so as
/// long as the caller's closure stays small (a handful of handles and
/// flags) no call allocates.
class SimContainerBackend {
 public:
  SimContainerBackend(Runtime& rt, CpuModel& cpu, Rng rng,
                      BackendLatencyProfile profile,
                      BackendFaults faults = {});

  /// Create sandbox + agent for `profile`; `done(bool ok)` runs after the
  /// modeled delay.
  template <typename F>
  void create_container(const FunctionProfile& profile, F&& done) {
    bool ok = false;
    Duration d = start_create(profile, ok);
    rt_.schedule(d,
                 [done = std::forward<F>(done), ok]() mutable { done(ok); });
  }

  /// Execute `work_seconds` of function code at cgroup weight `cpus`;
  /// `done(bool ok, Duration actual)` runs when it finishes, with the
  /// contention-inflated elapsed execution time.
  template <typename F>
  void invoke(double work_seconds, double cpus, F&& done) {
    const bool fail = rng_.bernoulli(faults_.invoke_failure_prob);
    const TimePoint started = rt_.now();
    auto on_complete = [this, done = std::forward<F>(done), started,
                        fail]() mutable { done(!fail, rt_.now() - started); };
    static_assert(sizeof(on_complete) <= Task::kInlineSize,
                  "the execution continuation must fit a Task inline");
    cpu_.submit(work_seconds, cpus, std::move(on_complete));
  }

  /// Tear down a sandbox (runs off the critical path); `done(bool ok)`.
  template <typename F>
  void destroy_container(F&& done) {
    rt_.schedule(profile_.destroy.sample(rng_),
                 [done = std::forward<F>(done)]() mutable { done(true); });
  }

 private:
  /// Draw a create's delay and outcome (`ok`).
  Duration start_create(const FunctionProfile& profile, bool& ok);

  Runtime& rt_;
  CpuModel& cpu_;
  Rng rng_;
  BackendLatencyProfile profile_;
  BackendFaults faults_;
  /// Successful creates so far; each one's count is its kColdCreate arg.
  std::uint64_t creates_ = 0;
  /// Function names whose first container has been created (snapshot
  /// available from then on).
  std::unordered_set<std::string> snapshotted_;
};

}  // namespace ilu
