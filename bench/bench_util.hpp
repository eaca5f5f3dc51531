#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "iluvatar.hpp"
#include "util/json.hpp"

/// Shared helpers for the per-figure/table benchmark binaries.
namespace ilu::bench {

/// Directory for CSV outputs (created on demand): ./results
inline std::string results_dir() {
  std::filesystem::create_directories("results");
  return "results";
}

inline void banner(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

/// Append `record` to the perf ledger at `path` (BENCH_core.json's layout:
/// {"runs": [...], "schema": ...}, pretty-printed at indent 2) without
/// touching the text of the records before it: the record's text is spliced
/// in before the runs array's closing "\n  ]", as tools/bench_ab.py does.
/// Re-dumping the whole document would rewrite every earlier record's float
/// digits. A missing file is written fresh; a file without a non-empty runs
/// array, or a splice that does not parse, throws and leaves `path` as it was.
inline void append_ledger_record(const std::string& path,
                                 const JsonObject& record) {
  std::string text;
  if (std::filesystem::exists(path)) {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    const std::size_t end = text.rfind("\n  ]");
    if (end == std::string::npos) {
      throw std::runtime_error(path + ": no runs array to append to");
    }
    // Indent the record to its depth inside "runs", as a whole-document
    // dump would.
    std::string body = "    ";
    for (char c : JsonValue(record).dump(2)) {
      body += c;
      if (c == '\n') body += "    ";
    }
    text.insert(end, ",\n" + body);
    (void)json_parse(text);
  } else {
    JsonObject doc;
    doc["runs"] = JsonArray{JsonValue(record)};
    doc["schema"] = "ilu-bench-core-v1";
    text = JsonValue(doc).dump(2) + "\n";
  }
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error(path + ": write failed");
}

/// Drive a closed loop against any invoker and collect results.
/// Returns all results (caller filters warm/cold).
inline std::vector<InvokeResult> run_closed_loop(
    SimRuntime& rt, const InvokeFn& invoke, std::size_t clients,
    std::size_t iterations_per_client, Duration max_sim_time = mins(60)) {
  ClosedLoopDriver driver(rt, invoke, 0, clients);
  driver.start(iterations_per_client);
  TimePoint deadline = rt.now() + max_sim_time;
  while (!driver.done() && rt.now() < deadline) {
    rt.run_for(secs(1));
  }
  return driver.results();
}

/// Replay a trace open-loop against any invoker; waits for stragglers.
inline std::vector<InvokeResult> replay_trace(
    SimRuntime& rt, const InvokeFn& invoke, const Trace& trace,
    Duration drain = mins(5)) {
  OpenLoopDriver driver(rt, invoke);
  driver.start(trace);
  TimePoint deadline =
      rt.now() + trace.duration + drain;
  while (!driver.done() && rt.now() < deadline) {
    rt.run_for(secs(5));
  }
  return driver.results();
}

inline InvokeFn worker_invoker(Worker& w, FunctionId base = 0) {
  return [&w, base](FunctionId fn,
                    std::function<void(const InvokeResult&)> cb) {
    w.invoke(base + fn, std::move(cb));
  };
}

inline InvokeFn openwhisk_invoker(OpenWhiskModel& ow, FunctionId base = 0) {
  return [&ow, base](FunctionId fn,
                     std::function<void(const InvokeResult&)> cb) {
    ow.invoke(base + fn, std::move(cb));
  };
}

/// Summary of warm-start control-plane overheads from a result set.
inline Summary warm_overheads(const std::vector<InvokeResult>& results) {
  Summary s;
  for (const auto& r : results) {
    if (r.success && !r.cold) s.add_ms(r.overhead());
  }
  return s;
}

}  // namespace ilu::bench
