// Cluster-layer study (§4.1's CH-BL adoption): warm-start rate, latency,
// and load balance for CH-BL vs round-robin vs least-loaded as the cluster
// scales, and a sweep of the CH-BL load-bound factor. Not a paper figure —
// it validates the load-balancing layer the paper builds on (FaasLB,
// HPDC '22) at trace scale.
//
// Second section: time-parallel simulation. The same 32-worker scenario is
// run on a ShardedRuntime at 1/2/4/8 shards; every run must produce a
// byte-identical ExperimentReport (the conservative-window determinism
// contract), and the wall-clock times show the speedup. `--shards N`
// restricts the sweep to {1, N}. On a 1-core host the sharded runs can't
// be faster — equivalence is still asserted. `--arena FILE` replays an
// ilu-arena-v1 on-disk arena (tools/trace_gen) through the sharded cluster
// instead of the built-in synthetic workload — the mmap'd key column feeds
// the same EventView hot loop the in-RAM storage does.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>

#include "bench_util.hpp"

namespace {

using namespace ilu;
using namespace ilu::bench;

struct Out {
  double warm_pct = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double imbalance = 0.0;  // max/mean routed
  std::uint64_t forwarded = 0;
};

Out run(std::size_t workers, LbPolicy lb, double bound_factor) {
  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = workers;
  cfg.lb = lb;
  cfg.chbl.bound_factor = bound_factor;
  cfg.worker.cores = 8;
  cfg.worker.memory_mb = 8 * 1024;
  Cluster cluster(rt, cfg);

  std::vector<SyntheticFunctionSpec> specs;
  Rng rng(23);
  auto bench_fns = function_bench();
  for (int i = 0; i < 64; ++i) {
    auto p = bench_fns[i % bench_fns.size()];
    if (p.name == "video_encoding") p = bench_fns[(i + 1) % bench_fns.size()];
    p.name += "_" + std::to_string(i);
    specs.push_back({.profile = p,
                     .mean_iat = secs(rng.uniform(1.5, 10.0)),
                     .exponential = true});
  }
  auto trace = make_synthetic_trace(specs, mins(8), 29);
  for (const auto& f : trace.functions) cluster.register_function(f);
  cluster.start();

  OpenLoopDriver d(rt, [&](FunctionId fn,
                           std::function<void(const InvokeResult&)> cb) {
    cluster.invoke(fn, std::move(cb));
  });
  d.start(trace);
  while (!d.done()) rt.run_for(secs(20));
  cluster.shutdown();

  Out out;
  std::uint64_t warm = 0, cold = 0;
  for (std::size_t i = 0; i < cluster.num_workers(); ++i) {
    warm += cluster.worker(i).warm_starts();
    cold += cluster.worker(i).cold_starts();
  }
  out.warm_pct = 100.0 * warm / std::max<std::uint64_t>(1, warm + cold);
  Summary lat;
  for (const auto& r : d.results()) {
    if (r.success) lat.add_ms(r.flow_time());
  }
  out.p50_ms = lat.p50();
  out.p99_ms = lat.p99();
  double total = 0.0, mx = 0.0;
  for (auto c : cluster.routed()) {
    total += static_cast<double>(c);
    mx = std::max(mx, static_cast<double>(c));
  }
  out.imbalance = mx / std::max(1.0, total / static_cast<double>(workers));
  out.forwarded = cluster.forwarded();
  return out;
}

/// The sharded scenario: 32 workers under CH-BL, dense synthetic traffic
/// (~1000 req/s — ~30 req/s per worker, paper-plausible for 8-core
/// workers). The density matters: conservative windows only pay off when
/// each shard executes many events per window, so the barrier cost
/// amortizes.
Trace sharded_workload() {
  std::vector<SyntheticFunctionSpec> specs;
  Rng rng(23);
  auto bench_fns = function_bench();
  for (int i = 0; i < 96; ++i) {
    auto p = bench_fns[i % bench_fns.size()];
    if (p.name == "video_encoding") p = bench_fns[(i + 1) % bench_fns.size()];
    p.name += "_" + std::to_string(i);
    specs.push_back({.profile = p,
                     .mean_iat = secs(rng.uniform(0.06, 0.3)),
                     .exponential = true});
  }
  return make_synthetic_trace(specs, mins(2), 31);
}

/// A shorter cut of the same traffic shape for the equivalence matrix: the
/// matrix exists to prove byte-identical results at every shard count, and
/// a short trace proves that just as well.
Trace matrix_workload() {
  std::vector<SyntheticFunctionSpec> specs;
  Rng rng(23);
  auto bench_fns = function_bench();
  for (int i = 0; i < 96; ++i) {
    auto p = bench_fns[i % bench_fns.size()];
    if (p.name == "video_encoding") p = bench_fns[(i + 1) % bench_fns.size()];
    p.name += "_" + std::to_string(i);
    specs.push_back({.profile = p,
                     .mean_iat = secs(rng.uniform(0.06, 0.3)),
                     .exponential = true});
  }
  return make_synthetic_trace(specs, secs(4), 31);
}

struct ShardedOut {
  double wall_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
  std::string fingerprint;  // report JSON: the equivalence witness
};

ShardedOut run_sharded(std::size_t nshards, EventView view,
                       const std::vector<FunctionProfile>& functions) {
  ClusterConfig cfg;
  cfg.num_workers = 32;
  cfg.lb = LbPolicy::ChBl;
  cfg.worker.cores = 8;
  cfg.worker.memory_mb = 8 * 1024;
  // A 1 ms RPC floor (datacenter-across-racks rather than same-rack) gives
  // 5x the default lookahead: windows are 5x wider, so each shard executes
  // 5x more events between barriers. Lookahead is *the* scaling lever of
  // conservative parallel simulation.
  cfg.rpc = LatencyModel::shifted(msecs(1.0),
                                  LatencyModel::lognormal(usecs(100), 0.4));

  ShardedRuntime srt(nshards, cfg.rpc.lower_bound());
  Cluster cluster(srt, cfg);
  for (const auto& f : functions) cluster.register_function(f);
  cluster.start();

  OpenLoopDriver d(srt.shard(0), [&](FunctionId fn,
                                     std::function<void(const InvokeResult&)>
                                         cb) {
    cluster.invoke(fn, std::move(cb));
  });

  auto t0 = std::chrono::steady_clock::now();
  d.start(view);
  while (!d.done()) srt.run_for(secs(20));
  auto t1 = std::chrono::steady_clock::now();
  cluster.shutdown();

  std::vector<std::string> names;
  for (const auto& f : functions) names.push_back(f.name);
  ExperimentReport rep(std::move(names));
  rep.add_all(d.results());

  ShardedOut out;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.completed = d.results().size();
  out.windows = srt.windows();
  out.messages = srt.messages();
  out.fingerprint = rep.to_json().dump();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  banner("Cluster scaling — CH-BL vs RR vs least-loaded");
  std::printf("%8s %-14s %8s %9s %10s %10s %10s\n", "workers", "lb", "warm%",
              "p50 ms", "p99 ms", "imbalance", "forwarded");
  CsvWriter csv(results_dir() + "/cluster_scaling.csv");
  csv.row("workers", "lb", "bound", "warm_pct", "p50_ms", "p99_ms",
          "imbalance", "forwarded");
  for (std::size_t workers : {2u, 4u, 8u}) {
    struct {
      LbPolicy lb;
      const char* name;
    } policies[] = {{LbPolicy::ChBl, "chbl"},
                    {LbPolicy::RoundRobin, "rr"},
                    {LbPolicy::LeastLoaded, "least"}};
    for (auto [lb, name] : policies) {
      auto o = run(workers, lb, 2.0);
      std::printf("%8zu %-14s %8.1f %9.0f %10.0f %10.2f %10llu\n", workers,
                  name, o.warm_pct, o.p50_ms, o.p99_ms, o.imbalance,
                  (unsigned long long)o.forwarded);
      csv.row(workers, name, 2.0, o.warm_pct, o.p50_ms, o.p99_ms,
              o.imbalance, o.forwarded);
    }
  }
  std::printf("\nCH-BL bound-factor sweep (8 workers): locality vs balance\n");
  std::printf("%8s %8s %9s %10s %10s %10s\n", "bound", "warm%", "p50 ms",
              "p99 ms", "imbalance", "forwarded");
  for (double bound : {1.1, 1.5, 2.0, 4.0}) {
    auto o = run(8, LbPolicy::ChBl, bound);
    std::printf("%8.1f %8.1f %9.0f %10.0f %10.2f %10llu\n", bound,
                o.warm_pct, o.p50_ms, o.p99_ms, o.imbalance,
                (unsigned long long)o.forwarded);
    csv.row(8, "chbl", bound, o.warm_pct, o.p50_ms, o.p99_ms, o.imbalance,
            o.forwarded);
  }
  std::printf(
      "\nCH-BL keeps warm rates high via locality; tighter bounds trade\n"
      "locality (more forwarding, more cold starts) for balance.\n");

  std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  std::string arena_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0) {
      auto n = static_cast<std::size_t>(std::strtoul(argv[i + 1], nullptr, 10));
      if (n >= 1) shard_counts = n == 1 ? std::vector<std::size_t>{1}
                                        : std::vector<std::size_t>{1, n};
    } else if (std::strcmp(argv[i], "--arena") == 0) {
      arena_path = argv[i + 1];
    }
  }

  banner("Time-parallel simulation — 32 workers, conservative windows");
  const char* kHeader = "%8s %10s %8s %9s %9s %9s %6s\n";
  std::printf(kHeader, "shards", "wall s", "speedup", "windows", "messages",
              "completed", "equal");
  CsvWriter scsv(results_dir() + "/cluster_sharded.csv");
  scsv.row("trace", "shards", "wall_s", "speedup", "windows", "messages",
           "completed", "equivalent");

  Trace synth;
  std::unique_ptr<ArenaFile> file;
  EventView view;
  const std::vector<FunctionProfile>* functions = nullptr;
  if (!arena_path.empty()) {
    try {
      file = std::make_unique<ArenaFile>(arena_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    view = file->view();
    functions = &file->functions();
    std::printf("replaying on-disk arena %s: %zu fns, %zu events\n",
                arena_path.c_str(), functions->size(), view.size());
  } else {
    synth = sharded_workload();
    view = EventView(synth);
    functions = &synth.functions;
  }

  auto print_row = [&scsv](const char* trace, std::size_t s,
                           const ShardedOut& o, double baseline_wall,
                           bool equal) {
    const double speedup = o.wall_s > 0.0 ? baseline_wall / o.wall_s : 0.0;
    std::printf("%8zu %10.3f %8.2f %9llu %9llu %9llu %6s\n", s, o.wall_s,
                speedup, (unsigned long long)o.windows,
                (unsigned long long)o.messages,
                (unsigned long long)o.completed, equal ? "yes" : "NO");
    scsv.row(trace, s, o.wall_s, speedup, o.windows, o.messages, o.completed,
             equal ? 1 : 0);
  };

  // Headline scaling sweep: conservative windows on the full trace (the
  // configuration whose wall time the speedup story is about).
  auto base = run_sharded(1, view, *functions);
  bool all_equal = true;
  print_row("full", 1, base, base.wall_s, true);
  for (std::size_t s : shard_counts) {
    if (s == 1) continue;
    auto o = run_sharded(s, view, *functions);
    const bool equal = o.fingerprint == base.fingerprint;
    all_equal = all_equal && equal;
    print_row("full", s, o, base.wall_s, equal);
  }

  // Equivalence matrix on the short trace: every shard count must
  // reproduce the serial report byte for byte.
  banner("Equivalence matrix — byte-identical reports");
  std::printf(kHeader, "shards", "wall s", "speedup", "windows", "messages",
              "completed", "equal");
  Trace matrix = matrix_workload();
  EventView mview(matrix);
  auto mbase = run_sharded(1, mview, matrix.functions);
  print_row("matrix", 1, mbase, mbase.wall_s, true);
  for (std::size_t s : shard_counts) {
    if (s == 1) continue;  // covered by the serial reference
    auto o = run_sharded(s, mview, matrix.functions);
    const bool equal = o.fingerprint == mbase.fingerprint;
    all_equal = all_equal && equal;
    print_row("matrix", s, o, mbase.wall_s, equal);
  }
  if (!all_equal) {
    std::printf("\nERROR: sharded runs diverged from the serial report — "
                "determinism contract broken.\n");
    return 1;
  }

  std::printf(
      "\nEvery shard count produced a byte-identical report;\n"
      "speedups only materialize with as many free cores as shards.\n");
  return 0;
}
