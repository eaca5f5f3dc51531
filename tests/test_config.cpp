#include "core/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "runtime/sim_runtime.hpp"
#include "trace/function_profile.hpp"

namespace ilu {
namespace {

TEST(Config, WorkerDefaultsWhenEmpty) {
  auto cfg = worker_config_from_json(json_parse("{}"));
  WorkerConfig def;
  EXPECT_EQ(cfg.cores, def.cores);
  EXPECT_EQ(cfg.memory_mb, def.memory_mb);
  EXPECT_EQ(cfg.queue_policy, def.queue_policy);
  EXPECT_EQ(cfg.keepalive_policy, def.keepalive_policy);
}

TEST(Config, WorkerFullDocument) {
  auto cfg = worker_config_from_json(json_parse(R"({
    "name": "w7", "cores": 16, "memory_mb": 8192,
    "queue_policy": "SJF", "keepalive_policy": "LRU",
    "concurrency_limit": 32, "dynamic_concurrency": true,
    "congestion_threshold": 1.5,
    "bypass_ms": 250, "bypass_load_limit": 0.8,
    "backend": "crun", "netns_pool_size": 16,
    "free_buffer_mb": 512, "sweep_interval_ms": 200,
    "create_retries": 5, "seed": 777
  })"));
  EXPECT_EQ(cfg.name, "w7");
  EXPECT_DOUBLE_EQ(cfg.cores, 16.0);
  EXPECT_EQ(cfg.memory_mb, 8192u);
  EXPECT_EQ(cfg.queue_policy, "SJF");
  EXPECT_EQ(cfg.keepalive_policy, "LRU");
  EXPECT_DOUBLE_EQ(cfg.regulator.limit, 32.0);
  EXPECT_TRUE(cfg.regulator.dynamic);
  EXPECT_DOUBLE_EQ(cfg.regulator.congestion_threshold, 1.5);
  EXPECT_EQ(cfg.bypass_threshold, msecs(250));
  EXPECT_DOUBLE_EQ(cfg.bypass_load_limit, 0.8);
  EXPECT_EQ(cfg.backend.name, "crun");
  EXPECT_EQ(cfg.netns.target_size, 16u);
  EXPECT_EQ(cfg.pool.free_buffer_mb, 512u);
  EXPECT_EQ(cfg.pool.sweep_interval, msecs(200));
  EXPECT_EQ(cfg.create_retries, 5);
  EXPECT_EQ(cfg.seed, 777u);
}

TEST(Config, UnknownKeysIgnored) {
  auto cfg = worker_config_from_json(
      json_parse(R"({"cores": 4, "future_knob": [1,2,3]})"));
  EXPECT_DOUBLE_EQ(cfg.cores, 4.0);
}

TEST(Config, BadQueuePolicyRejectedAtLoad) {
  EXPECT_THROW(
      worker_config_from_json(json_parse(R"({"queue_policy":"LIFO"})")),
      std::invalid_argument);
}

TEST(Config, BadKeepalivePolicyRejectedAtLoad) {
  EXPECT_THROW(
      worker_config_from_json(json_parse(R"({"keepalive_policy":"MRU"})")),
      std::invalid_argument);
}

TEST(Config, BadBackendRejected) {
  EXPECT_THROW(
      worker_config_from_json(json_parse(R"({"backend":"podman"})")),
      std::invalid_argument);
}

TEST(Config, BackendProfilesByName) {
  EXPECT_EQ(backend_profile_by_name("containerd").name, "containerd");
  EXPECT_EQ(backend_profile_by_name("docker").name, "docker");
  EXPECT_EQ(backend_profile_by_name("crun").name, "crun");
  EXPECT_EQ(backend_profile_by_name("null").name, "null");
}

TEST(Config, WorkerRoundTrip) {
  WorkerConfig cfg;
  cfg.name = "rt";
  cfg.cores = 24;
  cfg.queue_policy = "RARE";
  cfg.keepalive_policy = "HIST";
  cfg.regulator.dynamic = true;
  cfg.bypass_threshold = msecs(100);
  auto again = worker_config_from_json(worker_config_to_json(cfg));
  EXPECT_EQ(again.name, "rt");
  EXPECT_DOUBLE_EQ(again.cores, 24.0);
  EXPECT_EQ(again.queue_policy, "RARE");
  EXPECT_EQ(again.keepalive_policy, "HIST");
  EXPECT_TRUE(again.regulator.dynamic);
  EXPECT_EQ(again.bypass_threshold, msecs(100));
}

TEST(Config, LoadWorkerConfigFromFile) {
  auto path = (std::filesystem::temp_directory_path() / "ilu_cfg_test.json")
                  .string();
  {
    std::ofstream out(path);
    out << R"({"cores": 2, "memory_mb": 1024})";
  }
  auto cfg = load_worker_config(path);
  EXPECT_DOUBLE_EQ(cfg.cores, 2.0);
  EXPECT_EQ(cfg.memory_mb, 1024u);
  std::remove(path.c_str());
}

TEST(Config, ConfiguredWorkerActuallyRuns) {
  SimRuntime rt;
  auto cfg = worker_config_from_json(json_parse(
      R"({"cores": 4, "memory_mb": 1024, "backend": "crun",
          "queue_policy": "FCFS", "keepalive_policy": "LRU"})"));
  Worker w(rt, cfg);
  auto fn = w.register_function(pyaes());
  w.start();
  bool done = false;
  w.invoke(fn, [&](const InvokeResult& r) {
    done = true;
    EXPECT_TRUE(r.success);
  });
  rt.run_for(secs(30));
  EXPECT_TRUE(done);
  w.shutdown();
}

}  // namespace
}  // namespace ilu
