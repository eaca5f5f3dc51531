#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "keepalive/simulator.hpp"
#include "util/stats.hpp"

/// Dynamic vertical scaling of the keep-alive cache (the paper's Fig 8):
/// a proportional controller adjusts the cache (server memory) size so the
/// "miss speed" — cold starts per second — stays near a target. Resizing
/// only happens when the relative error exceeds a deadband (30% in the
/// paper) to avoid memory fragmentation from frequent small changes.
namespace ilu {

struct ProvisionerConfig {
  /// Target cold starts per second (paper uses 0.0015 /s).
  double target_miss_rate = 0.0015;
  /// Relative error below which no resize happens.
  double error_tolerance = 0.30;
  /// Proportional gain: relative capacity change per unit relative error.
  double gain = 0.20;
  /// Controller evaluation cadence.
  Duration interval = mins(2);
  /// Sliding window over which miss speed is measured.
  Duration window = mins(20);
  std::uint64_t min_capacity_mb = 1024;
  std::uint64_t max_capacity_mb = 64 * 1024;
  std::uint64_t initial_capacity_mb = 10000;
};

/// One controller evaluation point (a row of the Fig 8 timeseries).
struct ProvisionSample {
  TimePoint at{};
  double miss_rate = 0.0;
  std::uint64_t capacity_mb = 0;
  bool resized = false;
};

/// Resizes a ContainerPool: a trace replay's (Fig 8) or a live worker's.
class Provisioner {
 public:
  Provisioner(ContainerPool& pool, ProvisionerConfig cfg);

  /// Record a cold start at time t (call on every cache miss).
  void record_miss(TimePoint t);

  /// Evaluate the controller if an interval boundary has passed.
  void maybe_adjust(TimePoint now);

  const std::vector<ProvisionSample>& samples() const { return samples_; }
  double average_capacity_mb() const;

 private:
  ContainerPool& pool_;
  ProvisionerConfig cfg_;
  SlidingRateMeter misses_;
  TimePoint next_eval_;
  std::vector<ProvisionSample> samples_;
};

struct DynamicProvisioningResult {
  std::vector<ProvisionSample> timeseries;
  KeepAliveReplay::Stats stats;
  double average_capacity_mb = 0.0;
  std::uint64_t static_capacity_mb = 0;  // the conservative baseline
};

/// Replay a trace with the controller active; `policy_name` selects the
/// keep-alive policy (the paper uses its GD policy here).
DynamicProvisioningResult run_dynamic_provisioning(
    const Trace& trace, const std::string& policy_name,
    ProvisionerConfig cfg = {});

}  // namespace ilu
