#pragma once

#include <cstdint>
#include <string>

#include "util/time.hpp"

/// Types shared by the control plane (core/, baseline/), the workload layer
/// (trace/), and the cluster layer (lb/).
namespace ilu {

/// Dense function identifier: index into a Trace's function table / a
/// Cluster's (or standalone Worker's) function table.
using FunctionId = std::uint32_t;

/// Static characteristics of a function, as registered with the platform.
///
/// `warm_time` is the pure code execution time in an already-initialized
/// container; a cold start additionally pays `init_time` (code/data
/// dependency initialization: imports, model download, ...). This matches
/// how the paper's Table 3 reports FunctionBench apps: "Run time" is the
/// cold total and "Init time" its initialization component.
struct FunctionProfile {
  std::string name;
  std::uint32_t mem_mb = 128;
  Duration warm_time = msecs(100);
  Duration init_time = msecs(500);
  /// Requested CPU allocation (cgroup weight); 1.0 = one core.
  double cpus = 1.0;

  Duration cold_time() const { return warm_time + init_time; }
};

/// Outcome of one invocation, as observed by the client.
struct InvokeResult {
  bool success = false;
  /// Dropped by admission control / buffer overflow (OpenWhisk behaviour).
  bool dropped = false;
  /// true when a new container had to be created (cold start).
  bool cold = false;
  /// true when the invocation skipped the queue via the bypass path.
  bool bypassed = false;

  FunctionId fn = 0;
  TimePoint submitted{};
  TimePoint exec_started{};
  TimePoint completed{};
  /// Time spent waiting in the invocation queue.
  Duration queue_wait{};
  /// Function execution time (including init for cold starts), as inflated
  /// by CPU contention.
  Duration exec_time{};

  /// End-to-end latency (the paper's "flow time").
  Duration flow_time() const { return completed - submitted; }

  /// Control-plane overhead: flow time minus function execution time.
  /// This is exactly how Fig 1 measures overhead (queueing included).
  Duration overhead() const { return flow_time() - exec_time; }

  /// Normalized end-to-end latency (the paper's "stretch").
  double stretch() const {
    if (exec_time <= Duration::zero()) return 1.0;
    return static_cast<double>(flow_time().count()) /
           static_cast<double>(exec_time.count());
  }
};

}  // namespace ilu
