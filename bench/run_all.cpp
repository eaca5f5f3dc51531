// Perf-trajectory harness: measures the engine micro-operations and the
// fig4 keep-alive sweep wall-time at 1 and N threads, and appends a
// schema-stable run record to BENCH_core.json (at the repo root when run
// from there) so successive PRs accumulate a before/after trajectory
// instead of claiming speedups in prose.
//
//   ./build/bench/run_all [--label STR] [--out PATH] [--threads N] [--smoke]
//
// --smoke shrinks every input to seconds-scale (wired into ctest under the
// `perf` label as the bench_smoke target); the full run is minutes-scale.
//
// Schema (ilu-bench-core-v1): {"schema", "runs": [{label, utc, host_threads,
// smoke, engine:{events_per_sec, schedule_run_events_per_sec,
// schedule_cancel_ops_per_sec, queue_push_pop_ops_per_sec,
// pool_acquire_return_ops_per_sec, cluster_register_fns_per_sec},
// pool_churn:{slab_ops_per_sec,
// pointer_ops_per_sec, speedup}, trace_gen:{functions, events,
// aos_events_per_sec}, trace_replay:{functions,
// events, chunks, gen_events_per_sec, replay_events_per_sec, equivalent},
// cluster_scaling:{shards,
// completed, wall_s_serial, wall_s_sharded, speedup, equivalent},
// fig4_sweep:{cells, threads, wall_s_1thread, wall_s_nthreads, speedup},
// lint:{files, findings, wall_s, checks}, obs:{recorder_ns_per_event,
// recorder_disabled_ns_per_event, hist_ns_per_record}}]}.
// Fields are never renamed, so downstream tooling can diff runs across PRs;
// a field leaves the schema only with the mechanism it measured (older
// cluster_scaling records also carry the removed optimistic-sync fields,
// older trace_gen records the removed SoA generator's
// arena_events_per_sec).
// Note: on a 1-core CI host cluster_scaling.speedup < 1 by construction
// (barriers with no parallel hardware); `equivalent` is the load-bearing
// field there.

#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
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

struct SweepTiming {
  std::size_t cells = 0;
  unsigned threads = 1;
  double wall_s_1thread = 0.0;
  double wall_s_nthreads = 0.0;
  double speedup = 0.0;
};

/// Scaled-down fig4 grid: (trace x policy x cache-size) keep-alive sims,
/// timed sequentially and with the parallel sweep engine. The cells are the
/// same simulations fig4_exec_increase runs, on smaller traces so the full
/// harness stays minutes-scale (seconds-scale under --smoke).
SweepTiming fig4_sweep_timing(unsigned threads, bool smoke) {
  AzureModelConfig mcfg;
  mcfg.population = smoke ? 2000 : 20000;
  mcfg.days = smoke ? 1.0 / 24.0 : 0.25;
  AzureTraceModel model(mcfg);

  std::vector<Trace> traces;
  traces.push_back(model.sample_representative(smoke ? 50 : 200));
  if (!smoke) {
    traces.push_back(model.sample_rare(500));
    traces.push_back(model.sample_random(100));
  }
  const std::vector<std::uint64_t> cache_gb =
      smoke ? std::vector<std::uint64_t>{10, 30, 60}
            : std::vector<std::uint64_t>{10, 15, 20, 30, 40, 50, 60, 80};
  const std::vector<std::string> policies =
      smoke ? std::vector<std::string>{"TTL", "GD", "LRU"}
            : std::vector<std::string>{"TTL", "GD", "LRU",
                                       "LND", "FREQ", "HIST"};

  std::vector<std::function<KeepAliveSimResult()>> tasks;
  for (const auto& trace : traces) {
    for (const auto& pol : policies) {
      for (auto gb : cache_gb) {
        tasks.emplace_back([&trace, &pol, gb] {
          return run_keepalive_sim(trace, pol, gb * 1024);
        });
      }
    }
  }

  SweepTiming out;
  out.cells = tasks.size();
  out.threads = exp::SweepRunner({.threads = threads}).threads();

  auto fingerprint = [](const std::vector<KeepAliveSimResult>& rs) {
    double acc = 0.0;
    for (const auto& r : rs) acc += r.cold_fraction() + r.exec_increase_pct();
    return acc;
  };

  auto t0 = Clock::now();
  auto seq = exp::SweepRunner({.threads = 1}).run(tasks);
  out.wall_s_1thread = seconds_since(t0);

  t0 = Clock::now();
  auto par = exp::SweepRunner({.threads = threads}).run(tasks);
  out.wall_s_nthreads = seconds_since(t0);

  if (fingerprint(seq) != fingerprint(par)) {
    std::fprintf(stderr,
                 "FATAL: parallel sweep diverged from sequential results\n");
    std::exit(1);
  }
  out.speedup =
      out.wall_s_nthreads > 0.0 ? out.wall_s_1thread / out.wall_s_nthreads : 0.0;
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

struct TraceReplayTiming {
  std::size_t functions = 0;
  std::uint64_t events = 0;
  std::size_t chunks = 0;
  double gen_events_per_sec = 0.0;     // chunked generation to disk
  double replay_events_per_sec = 0.0;  // mmap'd streaming replay
  bool equivalent = false;             // mmap report == in-RAM report
};

/// Tentpole record: Azure-model trace generated to an on-disk ilu-arena-v1
/// file in bounded-memory chunks, then replayed from the mmap through
/// OpenLoopDriver against a deterministic latency engine. The in-RAM trace
/// replay of the same seed must produce a byte-identical ExperimentReport
/// (bench/trace_replay_scale.cpp runs the same check at any scale).
TraceReplayTiming trace_replay_timing(bool smoke) {
  TraceReplayTiming out;
  out.functions = smoke ? 2000 : 20000;
  const double target_events = smoke ? 2e5 : 2e6;

  AzureModelConfig mcfg;
  mcfg.population = std::max<std::size_t>(out.functions, 50000);
  mcfg.days = 0.25;
  AzureTraceModel model(mcfg);
  std::vector<std::size_t> indices(out.functions);
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  double rate_scale =
      rate_scale_for_target_events(model, indices, target_events);

  const std::string path = "run_all_trace_replay.arena";
  ArenaGenConfig gen_cfg;
  gen_cfg.chunk_functions = out.functions / 8 + 1;  // force a real merge
  auto t0 = Clock::now();
  ArenaGenStats stats =
      generate_arena_file(model, indices, rate_scale, path, gen_cfg);
  double gen_s = seconds_since(t0);
  out.events = stats.events;
  out.chunks = stats.chunks;
  out.gen_events_per_sec =
      gen_s > 0.0 ? static_cast<double>(stats.events) / gen_s : 0.0;

  // Latency-model replay: completion after warm time (plus init on the
  // function's first call), streamed to the report sink.
  auto replay = [](EventView view, const std::vector<FunctionProfile>& fns,
                   ArenaFile* release) {
    SimRuntime rt;
    std::vector<bool> seen(fns.size(), false);
    OpenLoopDriver driver(rt, [&](FunctionId fn,
                                  std::function<void(const InvokeResult&)>
                                      cb) {
      const FunctionProfile& p = fns[fn];
      bool cold = !seen[fn];
      seen[fn] = true;
      Duration exec = cold ? p.cold_time() : p.warm_time;
      TimePoint t0 = rt.now();
      rt.schedule(exec, [&rt, fn, cold, exec, t0, cb = std::move(cb)] {
        InvokeResult r;
        r.success = true;
        r.cold = cold;
        r.fn = fn;
        r.submitted = t0;
        r.exec_started = t0;
        r.completed = rt.now();
        r.exec_time = exec;
        cb(r);
      });
    });
    std::vector<std::string> names;
    for (const auto& f : fns) names.push_back(f.name);
    ExperimentReport report(std::move(names));
    std::uint64_t done = 0;
    driver.set_result_sink([&](const InvokeResult& r) {
      report.add(r);
      if (release != nullptr && (++done & ((1u << 18) - 1)) == 0) {
        release->release_keys_before(driver.submitted());
      }
    });
    driver.start(view);
    while (!driver.done()) rt.run_for(secs(3600));
    return std::pair{report.to_json().dump(), driver.submitted()};
  };

  ArenaFile arena(path);
  t0 = Clock::now();
  auto [mmap_fp, mmap_n] = replay(arena.view(), arena.functions(), &arena);
  double replay_s = seconds_since(t0);
  out.replay_events_per_sec =
      replay_s > 0.0 ? static_cast<double>(mmap_n) / replay_s : 0.0;

  Trace ram = model.build_trace(indices, rate_scale);
  auto [ram_fp, ram_n] = replay(EventView(ram), ram.functions, nullptr);
  out.equivalent = mmap_fp == ram_fp && mmap_n == ram_n;
  std::remove(path.c_str());
  if (!out.equivalent) {
    std::fprintf(stderr,
                 "FATAL: mmap'd arena replay diverged from in-RAM replay\n");
    std::exit(1);
  }
  return out;
}

struct ClusterShardTiming {
  std::size_t shards = 2;
  std::uint64_t completed = 0;
  double wall_s_serial = 0.0;
  double wall_s_sharded = 0.0;
  double speedup = 0.0;
  bool equivalent = false;
};

/// Tentpole record: the 16-worker cluster scenario on 1 shard vs N shards.
/// On a 1-core host every sharded run is slower than serial (barrier overhead
/// with no parallel hardware) — `equivalent` is the field CI cares about;
/// wall times only become a speedup with >= `shards` free cores.
ClusterShardTiming cluster_sharded_timing(unsigned threads, bool smoke) {
  std::vector<SyntheticFunctionSpec> specs;
  Rng rng(23);
  auto bench_fns = function_bench();
  for (int i = 0; i < 32; ++i) {
    auto p = bench_fns[i % bench_fns.size()];
    if (p.name == "video_encoding") p = bench_fns[(i + 1) % bench_fns.size()];
    p.name += "_" + std::to_string(i);
    specs.push_back({.profile = p,
                     .mean_iat = secs(rng.uniform(0.1, 0.5)),
                     .exponential = true});
  }
  auto trace = make_synthetic_trace(specs, smoke ? secs(10) : secs(45), 31);

  auto run_once = [&](std::size_t nshards, double* wall_s) {
    ClusterConfig cfg;
    cfg.num_workers = 16;
    cfg.lb = LbPolicy::ChBl;
    cfg.worker.cores = 8;
    cfg.worker.memory_mb = 8 * 1024;
    cfg.rpc = LatencyModel::shifted(msecs(1.0),
                                    LatencyModel::lognormal(usecs(100), 0.4));
    ShardedRuntime srt(nshards, cfg.rpc.lower_bound());
    Cluster cluster(srt, cfg);
    for (const auto& f : trace.functions) cluster.register_function(f);
    cluster.start();
    OpenLoopDriver d(srt.shard(0),
                     [&](FunctionId fn,
                         std::function<void(const InvokeResult&)> cb) {
                       cluster.invoke(fn, std::move(cb));
                     });
    auto t0 = Clock::now();
    d.start(trace);
    while (!d.done()) srt.run_for(secs(20));
    *wall_s = seconds_since(t0);
    cluster.shutdown();
    std::vector<std::string> names;
    for (const auto& f : trace.functions) names.push_back(f.name);
    ExperimentReport rep(std::move(names));
    rep.add_all(d.results());
    return std::pair{rep.to_json().dump(), d.results().size()};
  };

  ClusterShardTiming out;
  out.shards = std::max<std::size_t>(2, std::min<std::size_t>(threads, 4));
  auto [serial_fp, completed] = run_once(1, &out.wall_s_serial);
  auto [sharded_fp, completed2] = run_once(out.shards, &out.wall_s_sharded);
  out.completed = completed;
  out.equivalent = serial_fp == sharded_fp && completed == completed2;
  out.speedup = out.wall_s_sharded > 0.0
                    ? out.wall_s_serial / out.wall_s_sharded
                    : 0.0;
  if (!out.equivalent) {
    std::fprintf(stderr,
                 "FATAL: sharded cluster diverged from serial report\n");
    std::exit(1);
  }
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
/// with the loop thread running, then a miniature open-loop serving stage
/// through a real Worker (the full sweep is bench/live_serve).
struct LiveEngineTiming {
  double wheel_ops_per_sec = 0.0;
  double heap_ops_per_sec = 0.0;
  double wheel_contended_ops_per_sec = 0.0;
  double heap_contended_ops_per_sec = 0.0;
  double contended_speedup = 0.0;
  double serve_target_per_min = 0.0;
  double serve_achieved_per_sec = 0.0;
  std::uint64_t serve_completed = 0;
  bool serve_timed_out = false;
  double serve_overhead_p50_ms = 0.0;
  double serve_overhead_p99_ms = 0.0;
  double serve_overhead_p999_ms = 0.0;
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

  // Miniature serving stage. Smoke keeps the rate tiny (sanitizer matrices
  // run this harness); the full run offers 1M invocations/minute.
  const double per_min = smoke ? 30000.0 : 1000000.0;
  const double per_sec = per_min / 60.0;
  const Duration duration = smoke ? usecs(1500000) : secs(3);
  constexpr std::size_t kFns = 64;
  out.serve_target_per_min = per_min;
  {
    RealRuntime rt;
    WorkerConfig cfg;
    cfg.name = "run_all_live";
    cfg.cores = 384.0;
    cfg.memory_mb = 512 * 1024;
    cfg.regulator.limit = 2048.0;
    cfg.bypass_threshold = msecs(50);
    cfg.bypass_load_limit = 64.0;
    cfg.netns.target_size = 2048;
    cfg.netns.low_watermark = 512;
    cfg.predictive_prewarm = false;
    Worker w(rt, cfg);
    std::vector<SyntheticFunctionSpec> specs;
    const double fn_iat_us = 1e6 * static_cast<double>(kFns) / per_sec;
    for (std::size_t i = 0; i < kFns; ++i) {
      SyntheticFunctionSpec s;
      s.profile.name = "live_fn_" + std::to_string(i);
      s.profile.mem_mb = 128;
      s.profile.warm_time = msecs(4);
      s.profile.init_time = msecs(20);
      s.mean_iat = usecs(static_cast<std::int64_t>(fn_iat_us));
      s.exponential = false;
      s.phase = usecs(static_cast<std::int64_t>(
          fn_iat_us * static_cast<double>(i) / kFns));
      specs.push_back(std::move(s));
    }
    std::vector<FunctionId> fns;
    for (auto& s : specs) fns.push_back(w.register_function(s.profile));
    w.start();
    // Prewarm to cover the offered per-function overlap (see live_serve).
    const auto prewarms = static_cast<std::size_t>(std::max(
        4.0, std::ceil(per_sec / static_cast<double>(kFns) * 0.006 * 4.0)));
    std::atomic<std::size_t> warmed{0};
    for (FunctionId f : fns) {
      for (std::size_t k = 0; k < prewarms; ++k) {
        rt.post([&w, &warmed, f] {
          w.prewarm(f, [&warmed](bool) {
            warmed.fetch_add(1, std::memory_order_release);
          });
        });
      }
    }
    while (warmed.load(std::memory_order_acquire) < fns.size() * prewarms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Trace trace = make_synthetic_trace(specs, duration, 17);
    EventView view(trace);
    LiveLoadHarness harness(
        rt, [&w](FunctionId f, LiveLoadHarness::CompletionCb cb) {
          w.invoke(f, std::move(cb));
        });
    LiveLoadConfig lcfg;
    lcfg.producers = smoke ? 2 : 4;
    LiveLoadStats stats;
    harness.run(view, lcfg, &stats);
    out.serve_achieved_per_sec = stats.achieved_per_sec;
    out.serve_completed = stats.completed.load(std::memory_order_relaxed);
    out.serve_timed_out = stats.timed_out;
    out.serve_overhead_p50_ms = stats.overhead_ms.percentile(0.50);
    out.serve_overhead_p99_ms = stats.overhead_ms.percentile(0.99);
    out.serve_overhead_p999_ms = stats.overhead_ms.percentile(0.999);
    std::atomic<bool> down{false};
    rt.post([&w, &down] {
      w.shutdown();
      down.store(true, std::memory_order_release);
    });
    while (!down.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
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
  unsigned threads = exp::threads_from_args(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  banner("run_all — engine micro-ops + fig4 sweep wall-time");
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

  auto tr = trace_replay_timing(smoke);
  std::printf("%-36s %12zu fns, %llu events, %zu chunk(s)\n",
              "arena replay trace", tr.functions,
              static_cast<unsigned long long>(tr.events), tr.chunks);
  std::printf("%-36s %12.0f /s\n", "arena gen to disk (chunked)",
              tr.gen_events_per_sec);
  std::printf("%-36s %12.0f /s\n", "arena mmap replay",
              tr.replay_events_per_sec);
  std::printf("%-36s %12s\n", "arena replay reports equivalent",
              tr.equivalent ? "yes" : "NO");

  auto cs = cluster_sharded_timing(threads, smoke);
  std::printf("%-36s %12.2f s\n", "cluster sim wall (1 shard)",
              cs.wall_s_serial);
  std::printf("cluster sim wall (%zu shards)%*s %10.2f s\n", cs.shards,
              static_cast<int>(36 - 26 - std::to_string(cs.shards).size()), "",
              cs.wall_s_sharded);
  std::printf("%-36s %12.2fx\n", "cluster sim sharded speedup", cs.speedup);
  std::printf("%-36s %12s\n", "cluster sim reports equivalent",
              cs.equivalent ? "yes" : "NO");

  auto sweep = fig4_sweep_timing(threads, smoke);
  std::printf("%-36s %12zu\n", "fig4 sweep cells", sweep.cells);
  std::printf("%-36s %12.2f s\n", "fig4 sweep wall (1 thread)",
              sweep.wall_s_1thread);
  std::printf("fig4 sweep wall (%u threads)%*s %9.2f s\n", sweep.threads,
              static_cast<int>(36 - 26 -
                               std::to_string(sweep.threads).size()),
              "", sweep.wall_s_nthreads);
  std::printf("%-36s %12.2fx\n", "fig4 sweep speedup", sweep.speedup);

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
  std::printf("%-36s %12.0f /s (target %.0f/min)%s\n", "live serve achieved",
              lv.serve_achieved_per_sec, lv.serve_target_per_min,
              lv.serve_timed_out ? " [TIMED OUT]" : "");
  std::printf("%-36s %7.2f/%7.2f/%7.2f ms\n",
              "live serve overhead p50/p99/p999", lv.serve_overhead_p50_ms,
              lv.serve_overhead_p99_ms, lv.serve_overhead_p999_ms);

  // Append this run to the trajectory file (create if absent).
  JsonObject run;
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
  JsonObject trace_replay;
  trace_replay["functions"] = static_cast<std::uint64_t>(tr.functions);
  trace_replay["events"] = tr.events;
  trace_replay["chunks"] = static_cast<std::uint64_t>(tr.chunks);
  trace_replay["gen_events_per_sec"] = tr.gen_events_per_sec;
  trace_replay["replay_events_per_sec"] = tr.replay_events_per_sec;
  trace_replay["equivalent"] = tr.equivalent;
  run["trace_replay"] = trace_replay;
  JsonObject cluster;
  cluster["shards"] = static_cast<std::uint64_t>(cs.shards);
  cluster["completed"] = cs.completed;
  cluster["wall_s_serial"] = cs.wall_s_serial;
  cluster["wall_s_sharded"] = cs.wall_s_sharded;
  cluster["speedup"] = cs.speedup;
  cluster["equivalent"] = cs.equivalent;
  run["cluster_scaling"] = cluster;
  JsonObject fig4;
  fig4["cells"] = static_cast<std::uint64_t>(sweep.cells);
  fig4["threads"] = static_cast<std::int64_t>(sweep.threads);
  fig4["wall_s_1thread"] = sweep.wall_s_1thread;
  fig4["wall_s_nthreads"] = sweep.wall_s_nthreads;
  fig4["speedup"] = sweep.speedup;
  run["fig4_sweep"] = fig4;
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
  live["serve_target_per_min"] = lv.serve_target_per_min;
  live["serve_achieved_per_sec"] = lv.serve_achieved_per_sec;
  live["serve_completed"] = lv.serve_completed;
  live["serve_timed_out"] = lv.serve_timed_out;
  live["serve_overhead_p50_ms"] = lv.serve_overhead_p50_ms;
  live["serve_overhead_p99_ms"] = lv.serve_overhead_p99_ms;
  live["serve_overhead_p999_ms"] = lv.serve_overhead_p999_ms;
  run["live"] = live;

  JsonObject doc;
  JsonArray runs;
  if (std::filesystem::exists(out_path)) {
    try {
      JsonValue existing = json_parse_file(out_path);
      if (const JsonValue* r = existing.find("runs"); r && r->is_array()) {
        runs = r->as_array();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: could not parse %s (%s); rewriting\n",
                   out_path.c_str(), e.what());
    }
  }
  runs.emplace_back(run);
  doc["schema"] = "ilu-bench-core-v1";
  doc["runs"] = runs;
  std::ofstream out(out_path);
  out << JsonValue(doc).dump(2) << "\n";
  std::printf("\nappended run '%s' to %s (%zu total)\n", label.c_str(),
              out_path.c_str(), runs.size());
  return 0;
}
