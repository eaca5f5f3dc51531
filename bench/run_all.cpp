// Perf-trajectory harness: measures what the perfbench workloads do not —
// the engine micro-operations, slab pool churn, trace generation, an ilu-lint
// sweep, the flight recorder's single-call costs and the live timer wheel
// against the retired mutex heap — and appends a run record to
// BENCH_core.json (at the repo root when run from there) so successive PRs
// accumulate a before/after trajectory instead of claiming speedups in prose.
//
//   ./build/bench/run_all [--label STR] [--out PATH] [--smoke]
//
// --smoke shrinks every input to seconds-scale (wired into ctest under the
// `perf` label as the bench_smoke target); the full run is minutes-scale.
//
// Record schema (ilu-bench-core-v2): {schema: "ilu-bench-core-v2", label,
// utc, host_threads, smoke, engine:{events_per_sec,
// schedule_run_events_per_sec, schedule_cancel_ops_per_sec,
// queue_push_pop_ops_per_sec, pool_acquire_return_ops_per_sec,
// cluster_register_fns_per_sec}, pool_churn:{slab_ops_per_sec,
// pointer_ops_per_sec, speedup}, trace_gen:{functions, events,
// aos_events_per_sec}, lint:{files, findings, wall_s, checks},
// obs:{recorder_ns_per_event, recorder_disabled_ns_per_event,
// hist_ns_per_record}, live:{wheel_ops_per_sec, heap_ops_per_sec,
// wheel_contended_ops_per_sec, heap_contended_ops_per_sec,
// contended_speedup}}.
// v1 records (no "schema" field) also carry fig4_sweep, trace_replay,
// cluster_scaling and live.serve_*: v2 dropped them because perfbench's
// keepalive_sweep and azure_cluster workloads, trace_replay_smoke,
// cluster_scaling and live_serve measure those mechanisms, equivalence
// checks included. Fields are never renamed; a field leaves the schema only
// with the mechanism it measured (older trace_gen records also carry the
// removed SoA generator's arena_events_per_sec). The record is spliced into
// the ledger, so every earlier record keeps its text byte for byte.

#include <array>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>

#include "bench_util.hpp"
#include "lint/lint.hpp"
#include "mutex_heap_runtime.hpp"
#include "pointer_pool_baseline.hpp"
#include "util/json.hpp"

namespace {

using namespace ilu;
using namespace ilu::bench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-`reps` throughput for `body`, which performs `ops` operations.
template <typename F>
double best_ops_per_sec(std::uint64_t ops, int reps, F&& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    body();
    double s = seconds_since(t0);
    if (s > 0.0) best = std::max(best, static_cast<double>(ops) / s);
  }
  return best;
}

/// The worker's realistic schedule/cancel/fire mix: ~40 B captures and a
/// quarter of timers cancelled before firing (mirrors
/// micro_ops::BM_SimRuntimeChurnRealistic).
double engine_events_per_sec(int rounds) {
  std::uint64_t sum = 0;
  return best_ops_per_sec(
      static_cast<std::uint64_t>(rounds) * 1000, 3, [&] {
        for (int round = 0; round < rounds; ++round) {
          SimRuntime rt;
          for (int i = 0; i < 1000; ++i) {
            std::array<std::uint64_t, 4> payload{
                1, 2, 3, static_cast<std::uint64_t>(i)};
            auto id = rt.schedule(usecs((i * 37) % 500),
                                  [payload, &sum] { sum += payload[3]; });
            if (i % 4 == 0) rt.cancel(id);
          }
          rt.run();
        }
      });
}

/// Plain schedule+run cycle with tiny captures (the old engine's best case).
double engine_schedule_run_events_per_sec(int rounds) {
  std::uint64_t sum = 0;
  return best_ops_per_sec(
      static_cast<std::uint64_t>(rounds) * 1000, 3, [&] {
        for (int round = 0; round < rounds; ++round) {
          SimRuntime rt;
          for (int i = 0; i < 1000; ++i) {
            rt.schedule(usecs((i * 37) % 500), [&sum] { ++sum; });
          }
          rt.run();
        }
      });
}

/// Arm/disarm throughput: schedule 512 timers, cancel all, drain.
double engine_schedule_cancel_ops_per_sec(int rounds) {
  return best_ops_per_sec(
      static_cast<std::uint64_t>(rounds) * 512 * 2, 3, [&] {
        SimRuntime rt;
        std::vector<Runtime::TimerId> ids(512);
        for (int round = 0; round < rounds; ++round) {
          for (int i = 0; i < 512; ++i) {
            ids[i] = rt.schedule(usecs(1000 + (i * 31) % 512), [] {});
          }
          for (int i = 0; i < 512; ++i) rt.cancel(ids[i]);
          rt.run();
        }
      });
}

/// InvocationQueue push/pop under the default EEDF discipline.
double queue_push_pop_ops_per_sec(int rounds) {
  auto policy = make_queue_policy("EEDF");
  CharacteristicsMap chars;
  chars.record_warm(0, msecs(100));
  chars.record_cold(0, secs(1));
  InvocationQueue q(*policy, chars);
  std::uint64_t t = 0;
  return best_ops_per_sec(
      static_cast<std::uint64_t>(rounds) * 64, 3, [&] {
        for (int round = 0; round < rounds; ++round) {
          for (int i = 0; i < 64; ++i) {
            QueueItem item;
            item.fn = 0;
            item.arrival = usecs(t++);
            q.push(std::move(item), i % 2 == 0);
          }
          while (auto it = q.pop()) {
            (void)it;
          }
        }
      });
}

/// Warm-path container pool acquire/return cycle.
double pool_acquire_return_ops_per_sec(int rounds) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy,
                     ContainerPool::Config{.capacity_mb = 64 * 1024,
                                           .sweep_interval = Duration::zero()},
                     nullptr);
  auto profile = lookbusy(msecs(100), 128, msecs(500));
  for (int i = 0; i < 32; ++i) {
    ContainerHandle c = pool.add_container(0, profile, rt.now());
    pool.get(c).state = ContainerState::Running;
    pool.return_container(c, rt.now());
  }
  std::uint64_t t = 0;
  return best_ops_per_sec(static_cast<std::uint64_t>(rounds), 3, [&] {
    for (int round = 0; round < rounds; ++round) {
      ContainerHandle c = pool.acquire(0, usecs(t));
      pool.return_container(c, usecs(t + 1));
      t += 2;
    }
  });
}

/// Function registration on a 16-worker cluster, in functions per second
/// (mirrors micro_ops::BM_ClusterRegisterFunction, set-up included).
double cluster_register_fns_per_sec(std::size_t functions) {
  std::vector<FunctionProfile> profiles(functions,
                                        lookbusy(msecs(100), 128, secs(1)));
  for (std::size_t i = 0; i < functions; ++i) {
    profiles[i].name = "fn_" + std::to_string(i);
  }
  return best_ops_per_sec(functions, 3, [&] {
    SimRuntime rt;
    Cluster cluster(rt, ClusterConfig{.num_workers = 16});
    for (const auto& p : profiles) cluster.register_function(p);
  });
}

/// Cold-start -> warm-hit -> evict churn cycle, before/after the slab
/// refactor. Mirrors bench/pool_churn's loop; recorded so the trajectory
/// file carries the comparison on every host.
struct PoolChurnTiming {
  double slab_ops_per_sec = 0.0;
  double pointer_ops_per_sec = 0.0;
  double speedup = 0.0;
};

PoolChurnTiming pool_churn_timing(int cycles) {
  constexpr int kFns = 16;
  constexpr std::uint32_t kMemMb = 128;
  constexpr std::uint64_t kCapacityMb = 48 * kMemMb;
  auto profile = lookbusy(msecs(100), kMemMb, msecs(500));
  PoolChurnTiming out;
  {
    SimRuntime rt;
    LruPolicy policy;
    ContainerPool pool(rt, policy,
                       ContainerPool::Config{.capacity_mb = kCapacityMb,
                                             .free_buffer_mb = 0,
                                             .sweep_interval = Duration::zero()},
                       nullptr);
    std::uint64_t t = 0;
    auto cycle = [&](int n) {
      for (int i = 0; i < n; ++i) {
        ContainerHandle c = pool.add_container(
            static_cast<FunctionId>(i % kFns), profile, usecs(t));
        if (c.valid()) {
          pool.get(c).state = ContainerState::Running;
          ContainerHandle warm = pool.acquire(
              static_cast<FunctionId>((i + 1) % kFns), usecs(t + 1));
          if (warm.valid()) pool.return_container(warm, usecs(t + 2));
          pool.return_container(c, usecs(t + 3));
        }
        t += 4;
      }
    };
    cycle(cycles / 10);  // warm-up
    out.slab_ops_per_sec = best_ops_per_sec(
        static_cast<std::uint64_t>(cycles), 3, [&] { cycle(cycles); });
  }
  {
    LruPolicy policy;
    PointerContainerPool pool(policy, kCapacityMb);
    std::uint64_t t = 0;
    auto cycle = [&](int n) {
      for (int i = 0; i < n; ++i) {
        Container* c = pool.add_container(static_cast<FunctionId>(i % kFns),
                                          profile, usecs(t));
        if (c != nullptr) {
          c->state = ContainerState::Running;
          Container* warm = pool.acquire(
              static_cast<FunctionId>((i + 1) % kFns), usecs(t + 1));
          if (warm != nullptr) pool.return_container(warm, usecs(t + 2));
          pool.return_container(c, usecs(t + 3));
        }
        t += 4;
      }
    };
    cycle(cycles / 10);
    out.pointer_ops_per_sec = best_ops_per_sec(
        static_cast<std::uint64_t>(cycles), 3, [&] { cycle(cycles); });
  }
  out.speedup = out.pointer_ops_per_sec > 0.0
                    ? out.slab_ops_per_sec / out.pointer_ops_per_sec
                    : 0.0;
  return out;
}

struct TraceGenTiming {
  std::size_t functions = 0;
  std::size_t events = 0;
  double aos_events_per_sec = 0.0;  // make_synthetic_trace (AoS + sort)
};

/// Satellite bench: generator throughput on a wide function grid (20k
/// functions full, 2k smoke).
TraceGenTiming trace_gen_timing(bool smoke) {
  TraceGenTiming out;
  out.functions = smoke ? 2000 : 20000;
  std::vector<SyntheticFunctionSpec> specs;
  specs.reserve(out.functions);
  Rng rng(101);
  auto bench_fns = function_bench();
  for (std::size_t i = 0; i < out.functions; ++i) {
    auto p = bench_fns[i % bench_fns.size()];
    p.name += "_" + std::to_string(i);
    specs.push_back({.profile = p,
                     .mean_iat = secs(rng.uniform(5.0, 60.0)),
                     .exponential = true});
  }
  const Duration dur = mins(2);

  out.events = make_synthetic_trace(specs, dur, 13).events.size();
  const int reps = smoke ? 2 : 3;
  out.aos_events_per_sec = best_ops_per_sec(out.events, reps, [&] {
    auto t = make_synthetic_trace(specs, dur, 13);
    if (t.events.size() != out.events) std::exit(1);
  });
  return out;
}

std::string utc_now_string() {
  std::time_t t = std::time(nullptr);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&t));
  return buf;
}

/// ilu-lint over the real tree: the checker rides in every ctest run, so its
/// wall time is itself a perf budget worth tracking across PRs.
struct LintTiming {
  std::size_t files = 0;
  std::size_t findings = 0;
  double wall_s = 0.0;
};

/// Flight-recorder and log-histogram hot-path unit costs, tracked per PR so
/// the always-on observability budget (<= ~20 ns/event enabled, free when
/// disabled) is enforced by trajectory, not prose.
struct ObsTiming {
  double recorder_ns_per_event = 0.0;
  double recorder_disabled_ns_per_event = 0.0;
  double hist_ns_per_record = 0.0;
};

ObsTiming obs_timing(int iters) {
  ObsTiming out;
  auto ns_per = [&](auto&& body) {
    auto t0 = Clock::now();
    body();
    return seconds_since(t0) * 1e9 / iters;
  };
  {
    flight::Recorder rec(true);
    out.recorder_ns_per_event = ns_per([&] {
      for (int i = 0; i < iters; ++i) {
        rec.record(static_cast<std::uint64_t>(i), flight::Ev::kQueueEnq,
                   static_cast<std::uint32_t>(i));
      }
    });
  }
  {
    flight::Recorder rec(false);
    out.recorder_disabled_ns_per_event = ns_per([&] {
      for (int i = 0; i < iters; ++i) {
        rec.record(static_cast<std::uint64_t>(i), flight::Ev::kQueueEnq,
                   static_cast<std::uint32_t>(i));
      }
    });
  }
  {
    LogHistogram h;
    out.hist_ns_per_record = ns_per([&] {
      for (int i = 0; i < iters; ++i) {
        h.observe(0.05 + static_cast<double>(i % 400));
      }
    });
  }
  return out;
}

/// Live (wall-clock) engine: the sharded-stage timer wheel vs the retired
/// mutex + priority_queue + tombstone runtime
/// (bench/mutex_heap_runtime.hpp), measured as wall-clock op throughput
/// with the loop thread running. Serving through a real Worker is
/// bench/live_serve's.
struct LiveEngineTiming {
  double wheel_ops_per_sec = 0.0;
  double heap_ops_per_sec = 0.0;
  double wheel_contended_ops_per_sec = 0.0;
  double heap_contended_ops_per_sec = 0.0;
  double contended_speedup = 0.0;
};

/// Cross-thread schedule+cancel against a live loop thread, 1ms deadlines.
template <class RT>
double live_sched_cancel_ops_per_sec(int rounds) {
  RT rt;
  std::vector<Runtime::TimerId> ids(512);
  auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < 512; ++i) {
      ids[static_cast<std::size_t>(i)] =
          rt.schedule(usecs(1000 + (i * 31) % 512), [] {});
    }
    for (int i = 0; i < 512; ++i) rt.cancel(ids[static_cast<std::size_t>(i)]);
  }
  double s = seconds_since(t0);
  return s > 0.0 ? rounds * 1024.0 / s : 0.0;
}

/// 4 producers staging/cancelling concurrently, with backpressure so the
/// backlog stays bounded on few-core hosts (mirrors
/// micro_ops::BM_*ContendedLive).
template <class RT>
double live_contended_ops_per_sec(int rounds) {
  constexpr int kProducers = 4;
  RT rt;
  auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    threads.emplace_back([&rt, rounds] {
      std::array<Runtime::TimerId, 64> ring{};
      for (int i = 0; i < rounds * 512; ++i) {
        if ((i & 255) == 0) {
          while (rt.pending() > 64 * 1024) std::this_thread::yield();
        }
        ring[static_cast<std::size_t>(i % 64)] =
            rt.schedule(usecs(1000 + (i % 128)), [] {});
        if (i % 2 == 1) {
          rt.cancel(ring[static_cast<std::size_t>((i / 2) % 64)]);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  double s = seconds_since(t0);
  return s > 0.0 ? kProducers * rounds * 512.0 * 1.5 / s : 0.0;
}

LiveEngineTiming live_engine_timing(bool smoke) {
  LiveEngineTiming out;
  const int rounds = smoke ? 40 : 400;
  out.wheel_ops_per_sec = live_sched_cancel_ops_per_sec<RealRuntime>(rounds);
  out.heap_ops_per_sec =
      live_sched_cancel_ops_per_sec<bench::MutexHeapRuntime>(rounds);
  out.wheel_contended_ops_per_sec =
      live_contended_ops_per_sec<RealRuntime>(rounds);
  out.heap_contended_ops_per_sec =
      live_contended_ops_per_sec<bench::MutexHeapRuntime>(rounds);
  out.contended_speedup =
      out.heap_contended_ops_per_sec > 0.0
          ? out.wheel_contended_ops_per_sec / out.heap_contended_ops_per_sec
          : 0.0;
  return out;
}

LintTiming lint_tree_timing() {
  LintTiming out;
  auto t0 = Clock::now();
  auto findings =
      lint::lint_tree(std::string(ILU_SOURCE_DIR) + "/src", &out.files);
  out.wall_s = seconds_since(t0);
  out.findings = findings.size();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "run";
  std::string out_path = "BENCH_core.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  banner("run_all — engine micro-ops, pool churn, trace gen, lint, obs, live");
  const int rounds = smoke ? 200 : 2000;

  double ev = engine_events_per_sec(rounds);
  std::printf("%-36s %12.0f /s\n", "events (realistic churn)", ev);
  double ev_plain = engine_schedule_run_events_per_sec(rounds);
  std::printf("%-36s %12.0f /s\n", "events (plain schedule+run)", ev_plain);
  double sc = engine_schedule_cancel_ops_per_sec(rounds);
  std::printf("%-36s %12.0f /s\n", "schedule+cancel ops", sc);
  double qp = queue_push_pop_ops_per_sec(rounds * 10);
  std::printf("%-36s %12.0f /s\n", "queue push+pop ops", qp);
  double pa = pool_acquire_return_ops_per_sec(rounds * 100);
  std::printf("%-36s %12.0f /s\n", "pool acquire+return ops", pa);
  double cr = cluster_register_fns_per_sec(smoke ? 2000 : 20000);
  std::printf("%-36s %12.0f /s\n", "cluster register (16 workers)", cr);
  auto pc = pool_churn_timing(rounds * 50);
  std::printf("%-36s %12.0f /s\n", "pool churn (slab/handle)",
              pc.slab_ops_per_sec);
  std::printf("%-36s %12.0f /s\n", "pool churn (pointer baseline)",
              pc.pointer_ops_per_sec);
  std::printf("%-36s %12.2fx\n", "pool churn slab speedup", pc.speedup);

  auto tg = trace_gen_timing(smoke);
  std::printf("%-36s %12zu fns, %zu events\n", "trace gen grid", tg.functions,
              tg.events);
  std::printf("%-36s %12.0f /s\n", "trace gen (AoS stable_sort)",
              tg.aos_events_per_sec);

  auto lt = lint_tree_timing();
  std::printf("%-36s %12zu files, %zu finding(s)\n", "ilu-lint src/ sweep",
              lt.files, lt.findings);
  std::printf("%-36s %12.3f s\n", "ilu-lint wall", lt.wall_s);

  auto ob = obs_timing(smoke ? 200000 : 2000000);
  std::printf("%-36s %12.1f ns\n", "flight record (enabled)",
              ob.recorder_ns_per_event);
  std::printf("%-36s %12.1f ns\n", "flight record (disabled)",
              ob.recorder_disabled_ns_per_event);
  std::printf("%-36s %12.1f ns\n", "log-hist observe",
              ob.hist_ns_per_record);

  auto lv = live_engine_timing(smoke);
  std::printf("%-36s %12.0f /s\n", "live sched+cancel (wheel)",
              lv.wheel_ops_per_sec);
  std::printf("%-36s %12.0f /s\n", "live sched+cancel (mutex+heap)",
              lv.heap_ops_per_sec);
  std::printf("%-36s %12.0f /s\n", "live contended x4 (wheel)",
              lv.wheel_contended_ops_per_sec);
  std::printf("%-36s %12.0f /s\n", "live contended x4 (mutex+heap)",
              lv.heap_contended_ops_per_sec);
  std::printf("%-36s %12.2fx\n", "live contended wheel speedup",
              lv.contended_speedup);

  JsonObject run;
  run["schema"] = "ilu-bench-core-v2";
  run["label"] = label;
  run["utc"] = utc_now_string();
  run["host_threads"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  run["smoke"] = smoke;
  JsonObject engine;
  engine["events_per_sec"] = ev;
  engine["schedule_run_events_per_sec"] = ev_plain;
  engine["schedule_cancel_ops_per_sec"] = sc;
  engine["queue_push_pop_ops_per_sec"] = qp;
  engine["pool_acquire_return_ops_per_sec"] = pa;
  engine["cluster_register_fns_per_sec"] = cr;
  run["engine"] = engine;
  JsonObject pool_churn;
  pool_churn["slab_ops_per_sec"] = pc.slab_ops_per_sec;
  pool_churn["pointer_ops_per_sec"] = pc.pointer_ops_per_sec;
  pool_churn["speedup"] = pc.speedup;
  run["pool_churn"] = pool_churn;
  JsonObject trace_gen;
  trace_gen["functions"] = static_cast<std::uint64_t>(tg.functions);
  trace_gen["events"] = static_cast<std::uint64_t>(tg.events);
  trace_gen["aos_events_per_sec"] = tg.aos_events_per_sec;
  run["trace_gen"] = trace_gen;
  JsonObject lint_rec;
  lint_rec["files"] = static_cast<std::uint64_t>(lt.files);
  lint_rec["findings"] = static_cast<std::uint64_t>(lt.findings);
  lint_rec["wall_s"] = lt.wall_s;
  JsonArray lint_checks;
  for (const auto& c : lint::checks()) {
    lint_checks.emplace_back(std::string(c.name));
  }
  lint_rec["checks"] = lint_checks;
  run["lint"] = lint_rec;
  JsonObject obs;
  obs["recorder_ns_per_event"] = ob.recorder_ns_per_event;
  obs["recorder_disabled_ns_per_event"] = ob.recorder_disabled_ns_per_event;
  obs["hist_ns_per_record"] = ob.hist_ns_per_record;
  run["obs"] = obs;
  JsonObject live;
  live["wheel_ops_per_sec"] = lv.wheel_ops_per_sec;
  live["heap_ops_per_sec"] = lv.heap_ops_per_sec;
  live["wheel_contended_ops_per_sec"] = lv.wheel_contended_ops_per_sec;
  live["heap_contended_ops_per_sec"] = lv.heap_contended_ops_per_sec;
  live["contended_speedup"] = lv.contended_speedup;
  run["live"] = live;

  try {
    append_ledger_record(out_path, run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("\nappended run '%s' to %s\n", label.c_str(), out_path.c_str());
  return 0;
}
