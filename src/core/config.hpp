#pragma once

#include <string>

#include "core/worker.hpp"
#include "util/json.hpp"

/// Worker JSON configuration (§6: "Workers are configured with a json file
/// on startup, with the various policy options (such as queuing),
/// keep-alive, timeouts, ..."). Every knob that the benchmark harness
/// sweeps is exposed; unknown keys are ignored so configs stay forward
/// compatible, and all values default to the in-code defaults.
///
/// Schema (all optional):
///   { "name": "worker0", "cores": 48, "memory_mb": 49152,
///     "queue_policy": "EEDF", "keepalive_policy": "GD",
///     "concurrency_limit": 96, "dynamic_concurrency": false,
///     "congestion_threshold": 1.0,
///     "bypass_ms": 0, "bypass_load_limit": 1.0,
///     "backend": "containerd" | "docker" | "crun" | "null",
///     "netns_pool_size": 32, "free_buffer_mb": 2048,
///     "sweep_interval_ms": 500, "create_retries": 2, "seed": 42 }
namespace ilu {

/// Build a config from parsed JSON; throws JsonError / std::invalid_argument
/// on type mismatches or unknown enum values.
WorkerConfig worker_config_from_json(const JsonValue& v);

/// Serialize back to JSON (the sweepable knobs; latency models keep their
/// defaults and are not round-tripped).
JsonValue worker_config_to_json(const WorkerConfig& cfg);

/// Convenience file loader.
WorkerConfig load_worker_config(const std::string& path);

/// Resolve a backend latency profile by name; throws std::invalid_argument.
BackendLatencyProfile backend_profile_by_name(const std::string& name);

}  // namespace ilu
