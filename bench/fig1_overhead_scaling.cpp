// Fig 1: control-plane latency overhead vs concurrent invocations, warm
// starts only, OpenWhisk vs Ilúvatar on a 48-core server.
//
// Paper shape to reproduce: OpenWhisk p50 overhead >10 ms with p99 rising
// toward hundreds of ms (with non-monotonic inversions); Ilúvatar p50 <2 ms
// with tail <3 ms up to 32 concurrent and ~10 ms near saturation.

#include "bench_util.hpp"

namespace {

using namespace ilu;
using namespace ilu::bench;

struct Point {
  std::size_t clients;
  double p50, p99, mean;
};

Point measure_iluvatar(std::size_t clients, bool export_obs = false) {
  SimRuntime rt;
  WorkerConfig cfg;
  cfg.cores = 48.0;
  cfg.memory_mb = 48 * 1024;
  cfg.regulator.limit = 4.0 * cfg.cores;  // overcommit like the experiment
  cfg.seed = 1000 + clients;
  Worker w(rt, cfg);
  auto fn = w.register_function(pyaes());
  w.start();

  // Pre-warm one container per client so everything measured is warm.
  for (std::size_t i = 0; i < clients; ++i) w.prewarm(fn);
  rt.run_for(secs(30));

  auto results =
      run_closed_loop(rt, worker_invoker(w), clients, /*iters=*/40);
  w.shutdown();
  if (export_obs) {
    // Structured output for the deepest point on the curve: the
    // per-function report.
    ExperimentReport report({"pyaes"});
    report.add_all(results);
    report.write_json(results_dir() + "/fig1_report.json");
  }
  auto s = warm_overheads(results);
  return {clients, s.p50(), s.p99(), s.mean()};
}

Point measure_openwhisk(std::size_t clients) {
  SimRuntime rt;
  OpenWhiskConfig cfg;
  cfg.cores = 48.0;
  cfg.memory_mb = 48 * 1024;
  cfg.seed = 2000 + clients;
  OpenWhiskModel ow(rt, cfg);
  auto fn = ow.register_function(pyaes());
  ow.start();

  // Warm-up round: create `clients` containers via concurrent cold starts.
  {
    int done = 0;
    for (std::size_t i = 0; i < clients; ++i) {
      ow.invoke(fn, [&](const InvokeResult&) { ++done; });
    }
    while (done < static_cast<int>(clients)) rt.run_for(secs(1));
  }

  auto results =
      run_closed_loop(rt, openwhisk_invoker(ow), clients, /*iters=*/40);
  ow.shutdown();
  auto s = warm_overheads(results);
  return {clients, s.p50(), s.p99(), s.mean()};
}

}  // namespace

int main() {
  banner("Fig 1 — control-plane latency overhead vs concurrent invocations");
  std::printf("PyAES-style function, closed loop, warm starts, 48 cores.\n\n");
  std::printf("%10s | %28s | %28s\n", "", "Iluvatar (ms)", "OpenWhisk (ms)");
  std::printf("%10s | %8s %8s %8s | %8s %8s %8s\n", "clients", "p50", "p99",
              "mean", "p50", "p99", "mean");

  CsvWriter csv(results_dir() + "/fig1_overhead_scaling.csv");
  csv.row("clients", "ilu_p50_ms", "ilu_p99_ms", "ilu_mean_ms", "ow_p50_ms",
          "ow_p99_ms", "ow_mean_ms");

  for (std::size_t clients : {1u, 2u, 4u, 8u, 16u, 32u, 48u, 64u, 96u}) {
    auto il = measure_iluvatar(clients, /*export_obs=*/clients == 96u);
    auto ow = measure_openwhisk(clients);
    std::printf("%10zu | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n", clients,
                il.p50, il.p99, il.mean, ow.p50, ow.p99, ow.mean);
    csv.row(clients, il.p50, il.p99, il.mean, ow.p50, ow.p99, ow.mean);
  }
  std::printf(
      "\nPaper reference: OW p50 >10 ms, p99 up to ~600 ms; Iluvatar p50 "
      "<2 ms,\ntail <3 ms below 32 concurrent, ~10 ms at saturation.\n");
  return 0;
}
