// Table 1: latency of each Ilúvatar worker component for a single warm
// invocation, grouped as in the paper (Ingestion & Queuing / Container
// Operations / Agent Communication / Returning).
//
// The worker stamps every stage into the flight recorder; the table is the
// per-stage mean over those records. Besides the table itself (stdout +
// results/tab1_components.csv), this writes the flight dump
// (results/tab1_flight.bin — the table can be regenerated from it with
// `trace_tool tab1`, see EXPERIMENTS.md). Exits 1 if a flight ring wrapped,
// since the means would then miss the oldest invocations.

#include "bench_util.hpp"

int main() {
  using namespace ilu;
  using namespace ilu::bench;

  SimRuntime rt;
  WorkerConfig cfg;
  cfg.cores = 48.0;
  cfg.memory_mb = 16 * 1024;
  Worker w(rt, cfg);
  auto fn = w.register_function(pyaes());
  w.start();

  // One cold start to establish the container, then clear and measure only
  // warm invocations (the table is "for a single warm invocation").
  bool done = false;
  w.invoke(fn, [&](const InvokeResult&) { done = true; });
  while (!done) rt.run_for(secs(1));
  flight::Recorder& recorder = flight::Recorder::instance();
  recorder.clear();

  int completed = 0;
  std::function<void(int)> chain = [&](int remaining) {
    if (remaining == 0) return;
    w.invoke(fn, [&, remaining](const InvokeResult&) {
      ++completed;
      chain(remaining - 1);
    });
  };
  constexpr int kWarmRuns = 500;
  chain(kWarmRuns);
  while (completed < kWarmRuns) rt.run_for(secs(5));
  w.shutdown();

  const flight::StageTotals stages =
      flight::fold_stages(recorder.snapshot_all());
  if (stages.wrapped) {
    std::fprintf(stderr,
                 "tab1_components: a flight ring wrapped; the stage means "
                 "would miss the oldest invocations\n");
    return 1;
  }
  // Raw flight dump: the records the table is folded from.
  const std::string dump_path = results_dir() + "/tab1_flight.bin";
  if (!recorder.dump_to_file(dump_path)) {
    std::fprintf(stderr, "tab1_components: cannot write %s\n",
                 dump_path.c_str());
    return 1;
  }

  using flight::Ev;
  struct Row {
    const char* group;
    Ev stage;
    double paper_ms;
  };
  const Row rows[] = {
      {"Ingestion & Queuing", Ev::kStageInvoke, 0.026},
      {"Ingestion & Queuing", Ev::kStageSyncInvoke, 0.013},
      {"Ingestion & Queuing", Ev::kStageEnqueueInvocation, 0.017},
      {"Ingestion & Queuing", Ev::kStageAddItemToQ, 0.020},
      {"Container Operations", Ev::kStageSpawnWorker, 0.029},
      {"Container Operations", Ev::kStageDequeue, 0.020},
      {"Container Operations", Ev::kStageAcquireContainer, 0.096},
      {"Container Operations", Ev::kStageTryLockContainer, 0.014},
      {"Agent Communication", Ev::kStagePrepareInvoke, 0.154},
      {"Agent Communication", Ev::kStageCallContainer, 1.364},
      {"Agent Communication", Ev::kStageDownloadResult, 0.032},
      {"Returning", Ev::kStageReturnContainer, 0.017},
      {"Returning", Ev::kStageReturnResults, 0.266},
  };

  banner("Table 1 — per-component worker latency, single warm invocation");
  std::printf("%-22s %-20s %12s %12s\n", "Group", "Function", "measured ms",
              "paper ms");
  CsvWriter csv(results_dir() + "/tab1_components.csv");
  csv.row("group", "span", "measured_ms", "paper_ms");
  double total = 0.0, paper_total = 0.0;
  for (const auto& r : rows) {
    const char* name = flight::ev_name(r.stage);
    double ms = stages.mean_ms(r.stage);
    total += ms;
    paper_total += r.paper_ms;
    std::printf("%-22s %-20s %12.3f %12.3f\n", r.group, name, ms,
                r.paper_ms);
    csv.row(r.group, name, ms, r.paper_ms);
  }
  std::printf("%-22s %-20s %12.3f %12.3f\n", "TOTAL", "", total, paper_total);
  return 0;
}
