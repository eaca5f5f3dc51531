// Million-function trace replay from an mmap'd on-disk arena.
//
//   ./trace_replay_scale [--arena FILE | --functions N --target-events E]
//                        [--days D] [--seed S] [--chunk-functions N]
//                        [--smoke] [--keep] [--crosscheck]
//                        [--bench-out PATH] [--label STR]
//
// Measures the streaming replay plane end to end: an ilu-arena-v1 file
// (generated inline through the chunked bounded-memory generator, or passed
// in via --arena from tools/trace_gen) is mmap'd and replayed through
// OpenLoopDriver against a deterministic latency-model engine, with
// completions streamed to an ExperimentReport sink and consumed key pages
// returned to the kernel as the replay advances. Reports generation and
// replay events/s plus peak RSS — the load-bearing claim is that replay RSS
// is O(functions + page window), not O(events).
//
// --crosscheck (implied by --smoke) replays the same workload from the
// in-RAM trace the model builds directly and requires the two
// ExperimentReports to serialize byte-identically — the mmap'd streaming
// path must be a pure optimization. ctest wires `--smoke` in as the
// trace_replay_smoke perf test.
//
// --bench-out appends a run record (label, gen/replay events/s, peak RSS)
// to the BENCH_core.json ledger, as run_all does.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <numeric>
#include <thread>

#include "bench_util.hpp"
#include "util/json.hpp"

namespace {

using namespace ilu;
using namespace ilu::bench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// This process image's peak RSS (VmHWM). Not getrusage's ru_maxrss: Linux
/// carries the pre-exec image's high-water mark into it, so a program
/// started by a large process (a Python script, say) reads at least that
/// process's RSS. VmHWM restarts at exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

std::string utc_now_string() {
  std::time_t t = std::time(nullptr);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&t));
  return buf;
}

/// Deterministic latency-model control plane: an invocation completes after
/// its profile's warm time (plus init on the function's first call). No
/// queueing or contention — the bench measures the replay data plane, and
/// the model makes both replays (mmap and in-RAM) bit-reproducible.
class LatencyEngine {
 public:
  LatencyEngine(Runtime& rt, const std::vector<FunctionProfile>& fns)
      : rt_(rt), fns_(fns), seen_(fns.size(), false) {}

  void invoke(FunctionId fn, std::function<void(const InvokeResult&)> cb) {
    const FunctionProfile& p = fns_[fn];
    bool cold = !seen_[fn];
    seen_[fn] = true;
    Duration exec = cold ? p.cold_time() : p.warm_time;
    TimePoint t0 = rt_.now();
    rt_.schedule(exec, [this, fn, cold, exec, t0,
                        cb = std::move(cb)] {
      InvokeResult r;
      r.success = true;
      r.cold = cold;
      r.fn = fn;
      r.submitted = t0;
      r.exec_started = t0;
      r.completed = rt_.now();
      r.exec_time = exec;
      cb(r);
    });
  }

 private:
  Runtime& rt_;
  const std::vector<FunctionProfile>& fns_;
  std::vector<bool> seen_;
};

struct ReplayOutcome {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::string report_json;  // empty unless want_report
};

/// Replay `view` against the latency engine. `release` (optional) is called
/// periodically with the number of submitted events so the mmap path can
/// drop consumed pages.
ReplayOutcome replay(EventView view, const std::vector<FunctionProfile>& fns,
                     Duration duration, bool want_report,
                     const std::function<void(std::size_t)>& release) {
  SimRuntime rt;
  LatencyEngine engine(rt, fns);
  OpenLoopDriver driver(rt, [&engine](FunctionId fn,
                                      std::function<void(const InvokeResult&)>
                                          cb) {
    engine.invoke(fn, std::move(cb));
  });
  std::vector<std::string> names;
  if (want_report) {
    names.reserve(fns.size());
    for (const auto& f : fns) names.push_back(f.name);
  }
  // The report's Summary keeps every observation (exact percentiles), so it
  // is O(events) memory by design — only feed it when a cross-check needs
  // the serialized result. The full-scale runs count completions instead;
  // that is what keeps replay RSS O(functions + page window) at 10^8 events.
  ExperimentReport report(std::move(names));
  std::uint64_t completions = 0;
  std::uint64_t cold = 0;
  driver.set_result_sink([&](const InvokeResult& r) {
    if (want_report) report.add(r);
    cold += r.cold ? 1 : 0;
    ++completions;
    // Every ~1M completions, hand fully-consumed key pages back to the
    // kernel. submitted() only grows, so everything below it is dead.
    if (release && (completions & ((1u << 20) - 1)) == 0) {
      release(driver.submitted());
    }
  });

  ReplayOutcome out;
  auto t0 = Clock::now();
  driver.start(view);
  while (!driver.done()) rt.run_for(secs(3600));
  out.wall_s = seconds_since(t0);
  out.events = driver.submitted();
  if (driver.outstanding() != 0 || out.events != view.size()) {
    std::fprintf(stderr, "FATAL: replay did not drain (%zu outstanding)\n",
                 driver.outstanding());
    std::exit(1);
  }
  (void)duration;
  if (want_report) out.report_json = report.to_json().dump();
  std::printf("  completions:   %llu (%llu cold)\n",
              static_cast<unsigned long long>(completions),
              static_cast<unsigned long long>(cold));
  return out;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--arena FILE | --functions N --target-events E] "
               "[--days D] [--seed S] [--chunk-functions N] [--smoke] "
               "[--keep] [--crosscheck] [--bench-out PATH] [--label STR]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) try {
  std::string arena_path;
  std::size_t functions = 20000;
  double target_events = 2e6;
  double days = 1.0;
  std::uint64_t seed = AzureModelConfig{}.seed;
  ArenaGenConfig gen_cfg;
  bool smoke = false;
  bool keep = false;
  bool crosscheck = false;
  std::string bench_out;
  std::string label = "trace_replay";

  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--arena") == 0) {
      arena_path = need("--arena");
    } else if (std::strcmp(argv[i], "--functions") == 0) {
      functions = std::strtoull(need("--functions"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--target-events") == 0) {
      target_events = std::strtod(need("--target-events"), nullptr);
    } else if (std::strcmp(argv[i], "--days") == 0) {
      days = std::strtod(need("--days"), nullptr);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(need("--seed"), nullptr, 0);
    } else if (std::strcmp(argv[i], "--chunk-functions") == 0) {
      gen_cfg.chunk_functions =
          std::strtoull(need("--chunk-functions"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--keep") == 0) {
      keep = true;
    } else if (std::strcmp(argv[i], "--crosscheck") == 0) {
      crosscheck = true;
    } else if (std::strcmp(argv[i], "--bench-out") == 0) {
      bench_out = need("--bench-out");
    } else if (std::strcmp(argv[i], "--label") == 0) {
      label = need("--label");
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage(argv[0]);
    }
  }
  if (smoke) {
    functions = 2000;
    target_events = 2e5;
    crosscheck = true;
    // Exercise the multi-chunk generate/spill/merge path even at toy scale.
    gen_cfg.chunk_functions = std::min<std::size_t>(gen_cfg.chunk_functions,
                                                    512);
  }

  banner("trace_replay_scale — mmap'd on-disk arena replay");

  double gen_s = 0.0;
  double rate_scale = 1.0;
  std::unique_ptr<AzureTraceModel> model;  // kept only for --crosscheck
  std::vector<std::size_t> indices;
  bool generated = false;
  if (arena_path.empty()) {
    arena_path = "trace_replay_scale.arena";
    generated = true;
    AzureModelConfig mcfg;
    mcfg.population = std::max<std::size_t>(functions, 50000);
    mcfg.days = days;
    mcfg.seed = seed;
    model = std::make_unique<AzureTraceModel>(mcfg);
    indices.resize(functions);
    std::iota(indices.begin(), indices.end(), 0);
    rate_scale = target_events > 0.0
                     ? rate_scale_for_target_events(*model, indices,
                                                    target_events)
                     : 1.0;
    auto t0 = Clock::now();
    ArenaGenStats stats =
        generate_arena_file(*model, indices, rate_scale, arena_path, gen_cfg);
    gen_s = seconds_since(t0);
    std::printf("generated %s: %zu fns, %llu events, %zu chunk(s), %.1f MB "
                "in %.2f s (%.3g events/s)\n",
                arena_path.c_str(), stats.functions,
                static_cast<unsigned long long>(stats.events), stats.chunks,
                static_cast<double>(stats.file_bytes) / 1e6, gen_s,
                gen_s > 0.0 ? static_cast<double>(stats.events) / gen_s : 0.0);
  }

  ArenaFile arena(arena_path);
  std::printf("replaying %s: %zu fns, %zu events, %.1f MB mmap'd\n",
              arena_path.c_str(), arena.functions().size(), arena.size(),
              static_cast<double>(arena.file_bytes()) / 1e6);

  const bool want_report = crosscheck;
  auto mmap_run = replay(
      arena.view(), arena.functions(), arena.duration(), want_report,
      [&arena](std::size_t submitted) { arena.release_keys_before(submitted); });
  // Process-wide high-water mark, captured before any in-RAM cross-check
  // materializes O(events) state.
  double replay_rss_mb = peak_rss_mb();
  double replay_eps =
      mmap_run.wall_s > 0.0
          ? static_cast<double>(mmap_run.events) / mmap_run.wall_s
          : 0.0;
  std::printf("mmap replay: %llu events in %.2f s (%.3g events/s), peak RSS "
              "%.1f MB\n",
              static_cast<unsigned long long>(mmap_run.events),
              mmap_run.wall_s, replay_eps, replay_rss_mb);

  bool equivalent = true;
  if (crosscheck) {
    // In-RAM reference: the trace the model builds directly (when we
    // generated inline — covering generator + format + replay), else the
    // file's own materialization.
    Trace ram = generated && model != nullptr
                    ? model->build_trace(indices, rate_scale)
                    : arena.to_trace();
    auto ram_run = replay(EventView(ram), ram.functions, ram.duration,
                          /*want_report=*/true, nullptr);
    equivalent = ram_run.report_json == mmap_run.report_json &&
                 ram_run.events == mmap_run.events;
    std::printf("in-RAM replay: %llu events in %.2f s — reports %s\n",
                static_cast<unsigned long long>(ram_run.events),
                ram_run.wall_s,
                equivalent ? "byte-identical" : "DIVERGED");
    if (!equivalent) {
      std::fprintf(stderr,
                   "FATAL: mmap replay diverged from in-RAM replay\n");
      if (generated && !keep) std::remove(arena_path.c_str());
      return 1;
    }
  }

  if (!bench_out.empty()) {
    JsonObject rec;
    rec["functions"] = static_cast<std::uint64_t>(arena.functions().size());
    rec["events"] = static_cast<std::uint64_t>(arena.size());
    rec["file_mb"] = static_cast<double>(arena.file_bytes()) / 1e6;
    if (generated) {
      rec["gen_wall_s"] = gen_s;
      rec["gen_events_per_sec"] =
          gen_s > 0.0 ? static_cast<double>(arena.size()) / gen_s : 0.0;
    }
    rec["replay_wall_s"] = mmap_run.wall_s;
    rec["replay_events_per_sec"] = replay_eps;
    rec["replay_peak_rss_mb"] = replay_rss_mb;
    rec["crosschecked"] = crosscheck;
    JsonObject run;
    run["label"] = label;
    run["utc"] = utc_now_string();
    run["host_threads"] =
        static_cast<std::int64_t>(std::thread::hardware_concurrency());
    run["smoke"] = smoke;
    run["trace_replay_scale"] = rec;
    append_ledger_record(bench_out, run);
    std::printf("appended run '%s' to %s\n", label.c_str(),
                bench_out.c_str());
  }

  if (generated && !keep) std::remove(arena_path.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
