// Fig 4 (a,b,c): increase in execution time due to cold starts vs cache
// size, for keep-alive policies TTL / GD / LRU / LND / FREQ / HIST on the
// Representative, Rare, and Random Azure-model traces. The same sweep also
// yields Fig 5 (a,b,c), the cold-start (miss) fraction of every cell.
//
// Paper shape: on the representative trace GD cuts the overhead >3x vs TTL
// and reaches its floor at ~3x smaller cache sizes; on rare/random traces
// recency dominates and LRU wins, with HIST between TTL and the caching
// policies. Fig 5's miss-ratio curves can *disagree* with that ordering,
// because classic miss ratios ignore the per-function miss cost that
// Greedy-Dual optimizes.
//
// The (trace x policy x cache-size) grid fans across cores via the
// exp::SweepRunner (`--threads N`, default all cores); each cell is an
// independent deterministic simulation and the output is byte-identical to
// the sequential order whatever the thread count.

#include <csignal>

#include "bench_util.hpp"

namespace {
ilu::exp::SweepRunner* g_runner = nullptr;
}

// SIGINT stops the sweep cooperatively: cells in flight finish, the grid
// prints with "-" for the cells never reached, and the CSV keeps the
// completed subset. request_stop is a lock-free atomic store, so calling it
// here is async-signal-safe.
extern "C" void fig4_handle_sigint(int) {
  if (g_runner != nullptr) g_runner->request_stop();
}

int main(int argc, char** argv) {
  using namespace ilu;
  using namespace ilu::bench;

  unsigned threads = exp::threads_from_args(argc, argv);

  // Day-long traces at their *natural* rates: the keep-alive comparison
  // needs the trace's own concurrency level (force-scaling to the Table 2
  // request rates would make same-function spawn-start cold starts dominate
  // and mask all policy differences).
  AzureModelConfig mcfg;
  mcfg.population = 50000;
  mcfg.days = 1.0;
  AzureTraceModel model(mcfg);

  struct TraceCase {
    const char* name;
    Trace trace;
  };
  TraceCase cases[] = {
      {"representative", model.sample_representative(400)},
      {"rare", model.sample_rare(1000)},
      {"random", model.sample_random(200)},
  };
  const std::vector<std::uint64_t> cache_gb = {10, 15, 20, 30, 40, 50, 60, 80};
  const std::vector<std::string> policies = {"TTL", "GD",  "LRU",
                                             "LND", "FREQ", "HIST"};

  banner("Fig 4 — increase in execution time (%) due to cold starts");

  // One task per grid cell, in the exact order the sequential loops visited
  // them; results come back in that same submission order.
  std::vector<std::function<KeepAliveSimResult()>> tasks;
  for (auto& tc : cases) {
    for (const auto& pol : policies) {
      for (auto gb : cache_gb) {
        const Trace& trace = tc.trace;
        tasks.emplace_back([&trace, &pol, gb] {
          return run_keepalive_sim(trace, pol, gb * 1024);
        });
      }
    }
  }
  exp::SweepRunner runner(
      {.threads = threads, .progress_interval = secs(5.0)});
  g_runner = &runner;
  std::signal(SIGINT, fig4_handle_sigint);
  std::printf("(sweep: %zu cells on %u threads)\n", tasks.size(),
              runner.threads());
  const std::vector<std::optional<KeepAliveSimResult>> results =
      runner.run_partial(tasks);
  std::signal(SIGINT, SIG_DFL);
  if (runner.stop_requested()) {
    std::printf("(interrupted — printing the completed cells)\n");
  }

  CsvWriter csv(results_dir() + "/fig4_exec_increase.csv");
  csv.row("trace", "policy", "cache_gb", "exec_increase_pct",
          "cold_fraction");
  CsvWriter csv5(results_dir() + "/fig5_cold_fraction.csv");
  csv5.row("trace", "policy", "cache_gb", "cold_fraction");

  // One table per trace and figure; `value` picks the figure's metric.
  auto print_grid = [&](std::size_t first,
                        double (KeepAliveSimResult::*value)() const,
                        int precision) {
    std::printf("%-6s", "GB:");
    for (auto gb : cache_gb) std::printf("%9llu", (unsigned long long)gb);
    std::printf("\n");
    std::size_t idx = first;
    for (const auto& pol : policies) {
      std::printf("%-6s", pol.c_str());
      for (std::size_t g = 0; g < cache_gb.size(); ++g) {
        const auto& r = results[idx++];
        if (r) {
          std::printf("%9.*f", precision, ((*r).*value)());
        } else {
          std::printf("%9s", "-");
        }
      }
      std::printf("\n");
    }
  };

  const std::size_t cells_per_trace = policies.size() * cache_gb.size();
  for (std::size_t t = 0; t < std::size(cases); ++t) {
    const TraceCase& tc = cases[t];
    auto stats = tc.trace.stats();
    std::printf("\n[%s] %zu functions, %zu invocations, %.0f req/s\n",
                tc.name, stats.num_functions, stats.num_invocations,
                stats.reqs_per_sec);
    print_grid(t * cells_per_trace, &KeepAliveSimResult::exec_increase_pct, 3);
    std::size_t idx = t * cells_per_trace;
    for (const auto& pol : policies) {
      for (auto gb : cache_gb) {
        const auto& r = results[idx++];
        if (!r) continue;
        csv.row(tc.name, pol, gb, r->exec_increase_pct(),
                r->cold_fraction());
        csv5.row(tc.name, pol, gb, r->cold_fraction());
      }
    }
  }
  std::printf(
      "\nPaper reference: GD >3x lower than TTL on representative (floor at\n"
      "~15 GB vs ~50 GB); LRU ~2x better than TTL on rare; HIST between.\n");

  banner("Fig 5 — cold-start fraction (cache miss ratio)");
  for (std::size_t t = 0; t < std::size(cases); ++t) {
    std::printf("\n[%s]\n", cases[t].name);
    print_grid(t * cells_per_trace, &KeepAliveSimResult::cold_fraction, 4);
  }
  std::printf(
      "\nPaper reference: same ordering trends as Fig 4, but differences\n"
      "between policies shift because miss ratio ignores miss cost.\n");
  return runner.stop_requested() ? 130 : 0;
}
