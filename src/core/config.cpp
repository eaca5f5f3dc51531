#include "core/config.hpp"

#include <stdexcept>

namespace ilu {

BackendLatencyProfile backend_profile_by_name(const std::string& name) {
  if (name == "containerd") return BackendLatencyProfile::containerd();
  if (name == "docker") return BackendLatencyProfile::docker();
  if (name == "crun") return BackendLatencyProfile::crun();
  if (name == "null") return BackendLatencyProfile::null_backend();
  throw std::invalid_argument("unknown container backend: " + name);
}

WorkerConfig worker_config_from_json(const JsonValue& v) {
  WorkerConfig cfg;
  cfg.name = v.string_or("name", cfg.name);
  cfg.cores = v.number_or("cores", cfg.cores);
  cfg.memory_mb = static_cast<std::uint64_t>(
      v.number_or("memory_mb", static_cast<double>(cfg.memory_mb)));
  cfg.queue_policy = v.string_or("queue_policy", cfg.queue_policy);
  cfg.keepalive_policy = v.string_or("keepalive_policy", cfg.keepalive_policy);
  cfg.regulator.limit = v.number_or("concurrency_limit", cfg.regulator.limit);
  cfg.regulator.dynamic =
      v.bool_or("dynamic_concurrency", cfg.regulator.dynamic);
  cfg.regulator.congestion_threshold = v.number_or(
      "congestion_threshold", cfg.regulator.congestion_threshold);
  cfg.bypass_threshold = msecs(v.number_or("bypass_ms", 0.0));
  cfg.bypass_load_limit =
      v.number_or("bypass_load_limit", cfg.bypass_load_limit);
  if (const JsonValue* b = v.find("backend")) {
    cfg.backend = backend_profile_by_name(b->as_string());
  }
  cfg.netns.target_size = static_cast<std::size_t>(v.number_or(
      "netns_pool_size", static_cast<double>(cfg.netns.target_size)));
  cfg.pool.free_buffer_mb = static_cast<std::uint64_t>(v.number_or(
      "free_buffer_mb", static_cast<double>(cfg.pool.free_buffer_mb)));
  cfg.pool.sweep_interval = msecs(v.number_or(
      "sweep_interval_ms", to_ms(cfg.pool.sweep_interval)));
  cfg.create_retries = static_cast<int>(
      v.number_or("create_retries", cfg.create_retries));
  cfg.seed = static_cast<std::uint64_t>(
      v.number_or("seed", static_cast<double>(cfg.seed)));
  // Validate enums eagerly so a bad config fails at load time, not at the
  // first invocation.
  make_queue_policy(cfg.queue_policy);
  make_policy(cfg.keepalive_policy);
  return cfg;
}

JsonValue worker_config_to_json(const WorkerConfig& cfg) {
  JsonObject o;
  o["name"] = cfg.name;
  o["cores"] = cfg.cores;
  o["memory_mb"] = static_cast<double>(cfg.memory_mb);
  o["queue_policy"] = cfg.queue_policy;
  o["keepalive_policy"] = cfg.keepalive_policy;
  o["concurrency_limit"] = cfg.regulator.limit;
  o["dynamic_concurrency"] = cfg.regulator.dynamic;
  o["congestion_threshold"] = cfg.regulator.congestion_threshold;
  o["bypass_ms"] = to_ms(cfg.bypass_threshold);
  o["bypass_load_limit"] = cfg.bypass_load_limit;
  o["backend"] = cfg.backend.name;
  o["netns_pool_size"] = static_cast<double>(cfg.netns.target_size);
  o["free_buffer_mb"] = static_cast<double>(cfg.pool.free_buffer_mb);
  o["sweep_interval_ms"] = to_ms(cfg.pool.sweep_interval);
  o["create_retries"] = cfg.create_retries;
  o["seed"] = static_cast<double>(cfg.seed);
  return JsonValue(std::move(o));
}

WorkerConfig load_worker_config(const std::string& path) {
  return worker_config_from_json(json_parse_file(path));
}

}  // namespace ilu
