#pragma once

#include <functional>
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
/// time. The worker is written against the small abstract API the paper
/// advocates: create / launch task (agent) / invoke / destroy.
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

/// Abstract container backend, continuation-passing like the rest of the
/// control plane.
class ContainerBackend {
 public:
  using VoidCb = std::function<void(bool ok)>;
  /// actual elapsed execution duration (contention-inflated), ok flag.
  using InvokeCb = std::function<void(bool ok, Duration actual)>;

  virtual ~ContainerBackend() = default;

  virtual const std::string& name() const = 0;

  /// Create sandbox + agent for `profile`; cb(ok) after the modeled delay.
  virtual void create_container(const FunctionProfile& profile,
                                VoidCb cb) = 0;

  /// Execute `work_seconds` of function code at cgroup weight `cpus`.
  virtual void invoke(double work_seconds, double cpus, InvokeCb cb) = 0;

  /// Tear down a sandbox (runs off the critical path).
  virtual void destroy_container(VoidCb cb) = 0;
};

/// Discrete-event backend: create/destroy are latency samples, execution is
/// time on the shared CpuModel. With the null profile this is exactly the
/// paper's in-situ simulation; with the containerd/docker profiles it is
/// the calibrated stand-in for the real library.
class SimContainerBackend final : public ContainerBackend {
 public:
  SimContainerBackend(Runtime& rt, CpuModel& cpu, Rng rng,
                      BackendLatencyProfile profile,
                      BackendFaults faults = {});

  const std::string& name() const override { return profile_.name; }
  void create_container(const FunctionProfile& profile, VoidCb cb) override;
  void invoke(double work_seconds, double cpus, InvokeCb cb) override;
  void destroy_container(VoidCb cb) override;

  std::uint64_t creates() const { return creates_; }
  std::uint64_t destroys() const { return destroys_; }
  std::uint64_t create_failures() const { return create_failures_; }
  std::uint64_t snapshot_restores() const { return snapshot_restores_; }

 private:
  Runtime& rt_;
  CpuModel& cpu_;
  Rng rng_;
  BackendLatencyProfile profile_;
  BackendFaults faults_;
  std::uint64_t creates_ = 0;
  std::uint64_t destroys_ = 0;
  std::uint64_t create_failures_ = 0;
  std::uint64_t snapshot_restores_ = 0;
  /// Function names whose first container has been created (snapshot
  /// available from then on).
  std::unordered_set<std::string> snapshotted_;
};

}  // namespace ilu
