// Trace generation/inspection CLI for the Azure-model workloads.
//
//   ./trace_tool gen        <file> [rep|rare|random] [n] [target_rps] [hours]
//   ./trace_tool info       <file>
//   ./trace_tool replay     <file> [--flight-out <dump.bin>]
//   ./trace_tool tab1       <dump.bin>
//   ./trace_tool flightdump <dump.bin> [--out <chrome.json>]
//
// `gen` writes an ilu-arena-v1 trace file (also replayable by faas_sim
// --trace and bench/cluster_scaling --arena); `info` integrity-checks such
// a file and prints its statistics from the mmap'd keys in O(functions)
// memory; `replay` runs it through a simulated worker and can dump the
// flight recorder's binary event rings (to the same file if an ILU_DCHECK
// aborts the replay first); `tab1` recomputes the Table 1
// per-component latency view from the worker stage records in such a dump;
// `flightdump` decodes a binary flight dump (from `replay --flight-out`,
// bench/tab1_components or a crash) into a per-ring summary and optionally
// Chrome trace-event JSON.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "iluvatar.hpp"

using namespace ilu;

namespace {

int cmd_gen(int argc, char** argv) {
  std::string path = argv[2];
  std::string kind = argc > 3 ? argv[3] : "rep";
  std::size_t n = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 200;
  double rps = argc > 5 ? std::strtod(argv[5], nullptr) : 0.0;
  double hours = argc > 6 ? std::strtod(argv[6], nullptr) : 2.0;

  AzureModelConfig cfg;
  cfg.population = 50000;
  cfg.days = hours / 24.0;
  AzureTraceModel model(cfg);

  Trace t;
  if (kind == "rep") {
    t = model.sample_representative(n, rps);
  } else if (kind == "rare") {
    t = model.sample_rare(n, rps);
  } else if (kind == "random") {
    t = model.sample_random(n, rps);
  } else {
    std::fprintf(stderr, "unknown sample kind: %s (rep|rare|random)\n",
                 kind.c_str());
    return 2;
  }
  write_arena_file(t, path);
  auto s = t.stats();
  std::printf("wrote %s (ilu-arena-v1): %zu functions, %zu invocations, "
              "%.1f req/s over %.1f h\n",
              path.c_str(), s.num_functions, s.num_invocations,
              s.reqs_per_sec, to_sec(t.duration) / 3600.0);
  return 0;
}

int cmd_info(char** argv) {
  ArenaFile f(argv[2]);
  std::printf("arena %s (ilu-arena-v1)\n", argv[2]);
  std::printf("  functions:       %zu\n", f.functions().size());
  std::printf("  events:          %zu\n", f.size());
  std::printf("  duration:        %.2f h\n", to_sec(f.duration()) / 3600.0);
  std::printf("  file size:       %.1f MB (keys mmap'd)\n",
              static_cast<double>(f.file_bytes()) / 1e6);
  f.verify();
  std::printf("  integrity:       OK (keys sorted, fns bounded, checksums "
              "match)\n");

  // One more pass over the mmap'd keys; memory stays O(functions).
  const TraceStats s = compute_stats(f.view(), f.functions(), f.duration());
  std::printf("  invocations:     %zu\n", s.num_invocations);
  std::printf("  request rate:    %.2f /s\n", s.reqs_per_sec);
  std::printf("  avg IAT:         %.2f ms\n", to_ms(s.avg_iat));
  std::printf("  Little's-law expected concurrency: %.2f\n",
              s.expected_concurrency);
  const std::vector<std::size_t>& counts = s.invocations_per_function;
  std::vector<std::size_t> idx(counts.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const std::size_t top = std::min<std::size_t>(5, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + top, idx.end(),
                    [&](std::size_t a, std::size_t b) {
                      return counts[a] != counts[b] ? counts[a] > counts[b]
                                                    : a < b;
                    });
  std::printf("  top functions:\n");
  for (std::size_t i = 0; i < top; ++i) {
    const auto& fn = f.functions()[idx[i]];
    std::printf("    %-24s %8zu invocations, %u MB, warm %.0f ms, init %.0f ms\n",
                fn.name.c_str(), counts[idx[i]], fn.mem_mb, to_ms(fn.warm_time),
                to_ms(fn.init_time));
  }
  return 0;
}

int cmd_replay(int argc, char** argv) {
  std::string path = argv[2];
  std::string flight_out;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--flight-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--flight-out requires a file argument\n");
        return 2;
      }
      flight_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown replay option: %s\n", argv[i]);
      return 2;
    }
  }
  // Drop whatever earlier commands in this process recorded, so the dump
  // covers exactly this replay — and lands in the same file if a failed
  // ILU_DCHECK aborts the replay before it finishes.
  flight::Recorder::instance().clear();
  if (!flight_out.empty()) flight::Recorder::install_crash_dump(flight_out);

  ArenaFile arena(path);
  arena.verify();
  SimRuntime rt;
  WorkerConfig cfg;
  cfg.cores = 48.0;
  cfg.memory_mb = 32 * 1024;
  Worker w(rt, cfg);
  std::vector<std::string> names;
  for (const auto& f : arena.functions()) {
    w.register_function(f);
    names.push_back(f.name);
  }
  w.start();

  OpenLoopDriver driver(rt, [&w](FunctionId fn,
                                 std::function<void(const InvokeResult&)> cb) {
    w.invoke(fn, std::move(cb));
  });
  driver.start(arena.view());
  TimePoint deadline = rt.now() + arena.duration() + mins(5);
  while (!driver.done() && rt.now() < deadline) rt.run_for(secs(5));
  w.shutdown();

  ExperimentReport report(names);
  report.add_all(driver.results());
  std::printf("%s", report.format().c_str());

  if (!flight_out.empty()) {
    const auto& rec = flight::Recorder::instance();
    if (!rec.dump_to_file(flight_out)) {
      std::fprintf(stderr, "error: could not write %s\n", flight_out.c_str());
      return 1;
    }
    std::printf("wrote flight dump: %llu events on %zu ring(s) to %s\n",
                static_cast<unsigned long long>(rec.recorded()),
                rec.ring_count(), flight_out.c_str());
  }
  return 0;
}

/// Decode a binary flight dump: per-ring summary + per-event-code counts,
/// optionally converted to Chrome trace-event JSON (chrome://tracing,
/// Perfetto).
int cmd_flightdump(int argc, char** argv) {
  std::string out_path;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--out requires a file argument\n");
        return 2;
      }
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flightdump option: %s\n", argv[i]);
      return 2;
    }
  }

  auto rings = flight::read_dump(argv[2]);
  std::printf("flight dump %s: %zu ring(s)\n", argv[2], rings.size());
  std::map<std::string, std::size_t> by_code;
  for (const auto& r : rings) {
    std::uint64_t lo = r.events.empty() ? 0 : r.events.front().ts_us;
    std::uint64_t hi = r.events.empty() ? 0 : r.events.back().ts_us;
    std::printf(
        "  ring %2u: %6zu event(s) kept of %8llu recorded, ts %llu..%llu us\n",
        r.tid, r.events.size(), static_cast<unsigned long long>(r.recorded),
        static_cast<unsigned long long>(lo),
        static_cast<unsigned long long>(hi));
    for (const auto& e : r.events) {
      ++by_code[flight::ev_name(static_cast<flight::Ev>(e.code))];
    }
  }
  std::printf("  events by code:\n");
  for (const auto& [name, n] : by_code) {
    std::printf("    %-18s %8zu\n", name.c_str(), n);
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << flight::chrome_trace_json(rings);
    out << "\n";
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote Chrome trace JSON to %s\n", out_path.c_str());
  }
  return 0;
}

/// Regenerate the Table 1 view (mean latency per control-plane component)
/// from the worker stage records in a flight dump written by `replay
/// --flight-out` or bench/tab1_components.
int cmd_tab1(char** argv) {
  const flight::StageTotals stages =
      flight::fold_stages(flight::read_dump(argv[2]));

  using flight::Ev;
  struct Row {
    const char* group;
    Ev stage;
  };
  const Row rows[] = {
      {"Ingestion & Queuing", Ev::kStageInvoke},
      {"Ingestion & Queuing", Ev::kStageSyncInvoke},
      {"Ingestion & Queuing", Ev::kStageEnqueueInvocation},
      {"Ingestion & Queuing", Ev::kStageAddItemToQ},
      {"Container Operations", Ev::kStageSpawnWorker},
      {"Container Operations", Ev::kStageDequeue},
      {"Container Operations", Ev::kStageAcquireContainer},
      {"Container Operations", Ev::kStageTryLockContainer},
      {"Agent Communication", Ev::kStagePrepareInvoke},
      {"Agent Communication", Ev::kStageCallContainer},
      {"Agent Communication", Ev::kStageDownloadResult},
      {"Returning", Ev::kStageReturnContainer},
      {"Returning", Ev::kStageReturnResults},
  };
  std::printf("Table 1 from %s\n", argv[2]);
  std::printf("%-22s %-20s %12s %10s\n", "Group", "Function", "mean ms",
              "count");
  double total = 0.0;
  for (const auto& r : rows) {
    std::uint64_t n = stages.count_of(r.stage);
    if (n == 0) continue;
    total += stages.mean_ms(r.stage);
    std::printf("%-22s %-20s %12.3f %10llu\n", r.group,
                flight::ev_name(r.stage), stages.mean_ms(r.stage),
                static_cast<unsigned long long>(n));
  }
  std::printf("%-22s %-20s %12.3f\n", "TOTAL", "", total);
  if (stages.wrapped) {
    std::printf("note: a flight ring wrapped; these means cover only the "
                "records it still held\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc >= 3 && std::strcmp(argv[1], "gen") == 0) return cmd_gen(argc, argv);
  if (argc >= 3 && std::strcmp(argv[1], "info") == 0) return cmd_info(argv);
  if (argc >= 3 && std::strcmp(argv[1], "replay") == 0)
    return cmd_replay(argc, argv);
  if (argc >= 3 && std::strcmp(argv[1], "tab1") == 0) return cmd_tab1(argv);
  if (argc >= 3 && std::strcmp(argv[1], "flightdump") == 0)
    return cmd_flightdump(argc, argv);
  std::fprintf(stderr,
               "usage:\n  %s gen <file> [rep|rare|random] [n] [target_rps] "
               "[hours]\n  %s info <file>\n  %s replay <file> "
               "[--flight-out <dump.bin>]\n  %s tab1 <dump.bin>\n  %s "
               "flightdump <dump.bin> [--out <chrome.json>]\n",
               argv[0], argv[0], argv[0], argv[0], argv[0]);
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
