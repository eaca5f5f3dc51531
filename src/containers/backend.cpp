#include "containers/backend.hpp"

#include "obs/flight.hpp"

namespace ilu {

BackendLatencyProfile BackendLatencyProfile::containerd() {
  return {
      .name = "containerd",
      .create = LatencyModel::lognormal(msecs(300), 0.25),
      .agent_start = LatencyModel::lognormal(msecs(200), 0.30),
      .destroy = LatencyModel::lognormal(msecs(50), 0.30),
  };
}

BackendLatencyProfile BackendLatencyProfile::docker() {
  return {
      .name = "docker",
      .create = LatencyModel::lognormal(msecs(400), 0.25),
      .agent_start = LatencyModel::lognormal(msecs(200), 0.30),
      .destroy = LatencyModel::lognormal(msecs(80), 0.30),
  };
}

BackendLatencyProfile BackendLatencyProfile::crun() {
  return {
      .name = "crun",
      .create = LatencyModel::lognormal(msecs(150), 0.25),
      .agent_start = LatencyModel::lognormal(msecs(200), 0.30),
      .destroy = LatencyModel::lognormal(msecs(30), 0.30),
  };
}

BackendLatencyProfile BackendLatencyProfile::null_backend() {
  return {
      .name = "null",
      .create = LatencyModel::zero(),
      .agent_start = LatencyModel::zero(),
      .destroy = LatencyModel::zero(),
  };
}

SimContainerBackend::SimContainerBackend(Runtime& rt, CpuModel& cpu, Rng rng,
                                         BackendLatencyProfile profile,
                                         BackendFaults faults)
    : rt_(rt),
      cpu_(cpu),
      rng_(rng),
      profile_(std::move(profile)),
      faults_(faults) {}

Duration SimContainerBackend::start_create(const FunctionProfile& profile,
                                           bool& ok) {
  Duration d;
  if (profile_.snapshot_cold_starts && snapshotted_.count(profile.name) > 0) {
    // Restore from a previous snapshot of this function's container.
    d = profile_.snapshot_restore.sample(rng_);
  } else {
    d = profile_.create.sample(rng_) + profile_.agent_start.sample(rng_);
  }
  if (rng_.bernoulli(faults_.create_failure_prob)) {
    ok = false;
    return d;
  }
  ++creates_;
  flight::record(rt_.now(), flight::Ev::kColdCreate,
                 static_cast<std::uint32_t>(creates_));
  if (profile_.snapshot_cold_starts) snapshotted_.insert(profile.name);
  ok = true;
  return d;
}

}  // namespace ilu
