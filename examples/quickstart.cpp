// Quickstart: stand up an Ilúvatar worker on the deterministic simulation
// runtime, register a function, and exercise the full API surface —
// invoke (cold + warm), prewarm, async_invoke, status, and the per-stage
// latencies the worker stamps into the flight recorder.
//
//   ./quickstart

#include <cstdio>

#include "iluvatar.hpp"

using namespace ilu;

int main() {
  // The simulation runtime gives bit-reproducible virtual time; swapping in
  // RealRuntime runs the identical control-plane code on the wall clock.
  SimRuntime rt;

  WorkerConfig cfg;
  cfg.cores = 8.0;
  cfg.memory_mb = 4 * 1024;
  cfg.queue_policy = "EEDF";       // the paper's default discipline
  cfg.keepalive_policy = "GD";     // Greedy-Dual keep-alive
  Worker worker(rt, cfg);
  worker.start();

  // Register a FunctionBench-style function: 300 ms warm, 1.2 s init.
  FunctionId fn = worker.register_function(pyaes());
  std::printf("registered '%s': %u MB, warm %.0f ms, cold %.0f ms\n",
              worker.profile(fn).name.c_str(), worker.profile(fn).mem_mb,
              to_ms(worker.profile(fn).warm_time),
              to_ms(worker.profile(fn).cold_time()));

  // First invocation: cold start (container created through the backend).
  worker.invoke(fn, [](const InvokeResult& r) {
    std::printf("#1 %-5s exec=%7.1f ms  overhead=%6.2f ms  flow=%7.1f ms\n",
                r.cold ? "COLD" : "WARM", to_ms(r.exec_time),
                to_ms(r.overhead()), to_ms(r.flow_time()));
  });
  rt.run_for(secs(10));

  // Second invocation: warm start from the keep-alive pool, ~2 ms overhead.
  worker.invoke(fn, [](const InvokeResult& r) {
    std::printf("#2 %-5s exec=%7.1f ms  overhead=%6.2f ms  flow=%7.1f ms\n",
                r.cold ? "COLD" : "WARM", to_ms(r.exec_time),
                to_ms(r.overhead()), to_ms(r.flow_time()));
  });
  rt.run_for(secs(10));

  // Prewarm a second container, then two concurrent invocations are both
  // warm (no "spawn start").
  worker.prewarm(fn, [](bool ok) {
    std::printf("prewarm: %s\n", ok ? "ok" : "failed");
  });
  rt.run_for(secs(10));
  for (int i = 0; i < 2; ++i) {
    worker.invoke(fn, [i](const InvokeResult& r) {
      std::printf("#concurrent-%d %s\n", i, r.cold ? "COLD" : "WARM");
    });
  }
  rt.run_for(secs(10));

  // Async API: fire, then poll.
  auto token = worker.async_invoke(fn);
  rt.run_for(secs(10));
  if (auto r = worker.async_result(token)) {
    std::printf("async result: success=%d exec=%.1f ms\n", r->success,
                to_ms(r->exec_time));
  }

  auto s = worker.status();
  std::printf(
      "status: queue=%zu running=%zu load=%.2f used=%llu MB limit=%.0f\n",
      s.queue_len, s.running, s.load_average,
      (unsigned long long)s.used_mb, s.concurrency_limit);
  std::printf("counters: completed=%llu warm=%llu cold=%llu prewarms=%llu\n",
              (unsigned long long)worker.completed(),
              (unsigned long long)worker.warm_starts(),
              (unsigned long long)worker.cold_starts(),
              (unsigned long long)worker.prewarms());

  std::printf("\nper-stage mean latencies (Table 1 style):\n");
  const flight::StageTotals stages =
      flight::fold_stages(flight::Recorder::instance().snapshot_all());
  for (std::size_t i = 0; i < flight::kStageCount; ++i) {
    auto stage = static_cast<flight::Ev>(
        static_cast<std::size_t>(flight::Ev::kStageInvoke) + i);
    std::printf("  %-22s %8.3f ms  (n=%llu)\n", flight::ev_name(stage),
                stages.mean_ms(stage),
                static_cast<unsigned long long>(stages.count_of(stage)));
  }

  worker.shutdown();
  return 0;
}
