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

void SimContainerBackend::create_container(const FunctionProfile& profile,
                                           VoidCb cb) {
  Duration d;
  if (profile_.snapshot_cold_starts && snapshotted_.count(profile.name) > 0) {
    // Restore from a previous snapshot of this function's container.
    d = profile_.snapshot_restore.sample(rng_);
    ++snapshot_restores_;
  } else {
    d = profile_.create.sample(rng_) + profile_.agent_start.sample(rng_);
  }
  if (rng_.bernoulli(faults_.create_failure_prob)) {
    ++create_failures_;
    rt_.schedule(d, [cb = std::move(cb)] { cb(false); });
    return;
  }
  ++creates_;
  flight::record(rt_.now(), flight::Ev::kColdCreate,
                 static_cast<std::uint32_t>(creates_));
  if (profile_.snapshot_cold_starts) snapshotted_.insert(profile.name);
  rt_.schedule(d, [cb = std::move(cb)] { cb(true); });
}

void SimContainerBackend::invoke(double work_seconds, double cpus,
                                 InvokeCb cb) {
  bool fail = rng_.bernoulli(faults_.invoke_failure_prob);
  TimePoint started = rt_.now();
  cpu_.submit(work_seconds, cpus,
              [this, cb = std::move(cb), started, fail] {
                cb(!fail, rt_.now() - started);
              });
}

void SimContainerBackend::destroy_container(VoidCb cb) {
  ++destroys_;
  rt_.schedule(profile_.destroy.sample(rng_),
               [cb = std::move(cb)] { cb(true); });
}

}  // namespace ilu
