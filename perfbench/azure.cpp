// azure_cluster / azure_cluster_sharded: in-silico replay of an Azure-model
// trace through a 16-worker CH-BL Cluster, as fast as the host allows, on one
// SimRuntime or on a 2-shard ShardedRuntime. The benchmark generates the
// trace from its seed and hands the program only the events, through the
// program's OpenLoopDriver; every completion is fed to an ExperimentReport.
// Samples are taken between run_for slices, so the benchmark never adds an
// event to the simulation.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "lb/cluster.hpp"
#include "metrics/report.hpp"
#include "runtime/sharded_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/azure.hpp"
#include "trace/event_view.hpp"
#include "trace/loadgen.hpp"
#include "trace_gen.hpp"

namespace perfbench {
namespace {

using namespace ilu;

constexpr std::size_t kSampleFunctions = 400;
/// 15 rather than the paper-scale 20 inv/s: over the first two hours of the
/// model's day, 20 inv/s tips the cluster into a cold-start storm (28% cold,
/// p99 overhead ~90 s) and 12 inv/s gives a p99 that is 16 ms for one seed
/// and 330-380 ms for others; at 15 inv/s the pool evicts and CH-BL forwards
/// while cold share and p99 repeat within ~2% across seeds.
constexpr double kTargetRps = 15.0;
constexpr double kWindowHours = 2.0;
constexpr double kSmokeWindowHours = 0.25;
constexpr std::size_t kWorkers = 16;
/// Virtual time per run_for call. A traced run samples the layers between
/// slices, every 20 s. The untraced run only checks for the end of the replay
/// between slices, so it takes 10 min: each ShardedRuntime::run_for starts a
/// new thread for every shard but the first, and the program's flight
/// recorder keeps a 256 KiB ring for every thread that ever recorded, so 20 s
/// slices would leave ~90 MB of rings per 2 h sharded replay.
constexpr auto kTracedSlice = secs(20);
constexpr auto kSlice = mins(10);

/// The representative sample, rate-scaled to kTargetRps over the window.
Trace make_trace(std::uint64_t seed, double hours) {
  const AzureTraceModel model;
  return azure_trace(model, model.pick_representative(kSampleFunctions), 0.0,
                     hours * 60.0, kTargetRps, seed);
}

struct RepOut {
  double gen_s = 0.0;
  double setup_s = 0.0;
  double replay_s = 0.0;
  double cpu_s = 0.0;
  double run_for_s = 0.0;  // wall inside run_for
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // failed + dropped
  std::uint64_t unfinished = 0;
  std::uint64_t cold = 0;
  std::uint64_t bypassed = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
  std::uint64_t evictions = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t routed = 0;
  std::size_t pending_peak = 0;
  std::size_t inflight_peak = 0;
  std::size_t depth_peak = 0;
  std::size_t containers_peak = 0;
  double cpu_tasks_mean = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t report_fp = 0;
  std::size_t report_bytes = 0;
};

/// What one replay is run on: `shards` == 0 is the serial SimRuntime,
/// otherwise a ShardedRuntime with that many shards.
struct Engine {
  std::unique_ptr<SimRuntime> sim;
  std::unique_ptr<ShardedRuntime> sharded;

  Engine(std::size_t shards, Duration lookahead) {
    if (shards == 0) {
      sim = std::make_unique<SimRuntime>();
    } else {
      sharded = std::make_unique<ShardedRuntime>(shards, lookahead);
    }
  }
  Runtime& load_rt() { return sim ? static_cast<Runtime&>(*sim) : sharded->shard(0); }
  TimePoint now() const { return sim ? sim->now() : sharded->now(); }
  void run_for(Duration d) { sim ? sim->run_for(d) : sharded->run_for(d); }
  std::uint64_t events() const { return sim ? sim->events_processed() : sharded->total_events(); }
  std::size_t pending() const {
    if (sim) return sim->pending();
    std::size_t n = 0;
    for (std::size_t i = 0; i < sharded->shards(); ++i) n += sharded->shard(i).pending();
    return n;
  }
};

RepOut replay(const Options& opt, std::size_t shards, bool tracer_on,
              SpanLog* log, double hours, std::size_t cpu_slot) {
  RepOut out;
  // The replay runs on one CPU per shard, from the one of `cpu_slot` on; the
  // shard threads inherit the pin.
  const PinnedCpu pin(cpu_slot, std::max<std::size_t>(shards, 1));
  const std::int64_t setup_start = wall_ns();
  const Trace trace = make_trace(opt.seed, hours);
  out.gen_s = seconds_since(setup_start);

  ClusterConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.lb = LbPolicy::ChBl;
  cfg.worker.cores = 48;
  cfg.worker.memory_mb = 8 * 1024;
  set_span_tracer(cfg.worker, tracer_on);
  Engine eng(shards, cfg.rpc.lower_bound());
  std::unique_ptr<Cluster> cluster =
      eng.sim ? std::make_unique<Cluster>(*eng.sim, cfg)
              : std::make_unique<Cluster>(*eng.sharded, cfg);
  std::vector<std::string> names;
  for (const auto& f : trace.functions) {
    cluster->register_function(f);
    names.push_back(f.name);
  }
  cluster->start();
  out.setup_s = seconds_since(setup_start);

  ExperimentReport report(std::move(names));
  LatencyHistogram overhead;
  std::uint64_t inv_id = 0;          // next invocation id (traced)
  std::uint64_t completing = 0;      // id of the completion being reported

  OpenLoopDriver loader(
      eng.load_rt(),
      [&](FunctionId fn, std::function<void(const InvokeResult&)> cb) {
        if (!log) {
          cluster->invoke(fn, std::move(cb));
          return;
        }
        const std::uint64_t id = inv_id++;
        ScopedSpan span(log, "lb.invoke", id);
        cluster->invoke(fn, [&completing, id, cb = std::move(cb)](
                                const InvokeResult& r) {
          completing = id;
          cb(r);
        });
      });
  loader.set_result_sink([&](const InvokeResult& r) {
    if (r.dropped || !r.success) {
      ++out.failed;
      overhead.add_missing();
    } else {
      ++out.completed;
      out.cold += r.cold ? 1 : 0;
      out.bypassed += r.bypassed ? 1 : 0;
      overhead.add_us(r.overhead().count());
    }
    ScopedSpan span(log, "metrics.report_add", completing);
    report.add(r);
  });

  auto sample = [&] {
    out.pending_peak = std::max(out.pending_peak, eng.pending());
    std::size_t inflight = 0, depth = 0, containers = 0, tasks = 0;
    for (std::size_t i = 0; i < cluster->num_workers(); ++i) {
      Worker& w = cluster->worker(i);
      const Worker::Status s = w.status();
      inflight += s.running + s.queue_len;
      depth += s.queue_len;
      containers += w.pool().total_count();
      tasks += w.cpu().running();
    }
    out.inflight_peak = std::max(out.inflight_peak, inflight);
    out.depth_peak = std::max(out.depth_peak, depth);
    out.containers_peak = std::max(out.containers_peak, containers);
    return static_cast<double>(tasks) / static_cast<double>(cluster->num_workers());
  };

  const std::uint64_t events0 = eng.events();
  const Duration limit = trace.duration + mins(120);
  const Duration slice = opt.trace ? kTracedSlice : kSlice;
  double cpu_tasks_sum = 0.0;
  std::uint64_t slices = 0;
  ScopedSpan root(log, "bench.replay");
  const double cpu0 = process_cpu_s();
  const std::int64_t replay_start = wall_ns();
  loader.start(EventView(trace));
  while (!loader.done() && eng.now() < TimePoint{} + limit) {
    const std::int64_t t0 = wall_ns();
    {
      ScopedSpan span(log, "runtime.run_for");
      eng.run_for(slice);
    }
    out.run_for_s += seconds_since(t0);
    cpu_tasks_sum += sample();
    ++slices;
  }
  out.replay_s = seconds_since(replay_start);
  out.cpu_s = process_cpu_s() - cpu0;
  out.events = eng.events() - events0;
  out.cpu_tasks_mean = slices ? cpu_tasks_sum / static_cast<double>(slices) : 0.0;
  cluster->shutdown();

  out.submitted = trace.events.size();
  out.routed = loader.submitted();
  out.unfinished = out.submitted - (out.completed + out.failed);
  overhead.add_missing(out.unfinished);
  out.samples = overhead.count();
  out.p50_ms = overhead.percentile_ms(0.50);
  out.p99_ms = overhead.percentile_ms(0.99);
  if (eng.sharded) {
    out.windows = eng.sharded->windows();
    out.messages = eng.sharded->messages();
  }
  for (std::size_t i = 0; i < cluster->num_workers(); ++i) {
    out.evictions += cluster->worker(i).pool().evictions();
  }
  out.forwarded = cluster->forwarded();
  const std::string json = report.to_json().dump();
  out.report_fp = fingerprint(json);
  out.report_bytes = json.size();
  return out;
}

void print_rep(const char* what, const RepOut& r) {
  std::printf(
      "%-26s setup %.3f s (trace %.3f s), replay %.3f s, %.0f inv/s, "
      "%.2f cpu-us/inv\n"
      "%-26s submitted %llu completed %llu failed %llu unfinished %llu cold "
      "%llu, overhead p50 %.3f ms p99 %.3f ms (n=%llu), report %016llx "
      "(%zu B)\n",
      what, r.setup_s, r.gen_s, r.replay_s,
      r.replay_s > 0 ? static_cast<double>(r.completed) / r.replay_s : 0.0,
      r.completed ? r.cpu_s * 1e6 / static_cast<double>(r.completed) : 0.0, "",
      static_cast<unsigned long long>(r.submitted),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.unfinished),
      static_cast<unsigned long long>(r.cold), r.p50_ms, r.p99_ms,
      static_cast<unsigned long long>(r.samples),
      static_cast<unsigned long long>(r.report_fp), r.report_bytes);
}

void check_rep(Result& res, const std::string& tag, const RepOut& r) {
  res.attempted += r.submitted;
  res.failed += r.failed + r.unfinished;
  res.check(r.submitted == r.completed + r.failed && r.unfinished == 0,
            tag + ": submitted = completed + failed, none outstanding");
}

double inv_per_s(const RepOut& r) {
  return r.replay_s > 0 ? static_cast<double>(r.completed) / r.replay_s : 0.0;
}
double cpu_us(const RepOut& r) {
  return r.completed ? r.cpu_s * 1e6 / static_cast<double>(r.completed) : 0.0;
}

}  // namespace

Result run_azure(const Options& opt, std::size_t shards) {
  Result res;
  const double hours = opt.smoke ? kSmokeWindowHours : kWindowHours;
  const char* name = shards ? "azure_cluster_sharded" : "azure_cluster";
  std::printf("%s: %zu-function representative sample, %.0f inv/s, %.2f h "
              "window, %zu workers, %s\n",
              name, kSampleFunctions, kTargetRps, hours, kWorkers,
              shards ? "2-shard ShardedRuntime" : "serial SimRuntime");

  // Repetitions of one seed, each with the whole set-up, for --seconds and
  // at least 3 (a traced run makes one). Peak RSS is read after the first,
  // so it is the footprint of one set-up and replay however many follow.
  const std::size_t min_reps = opt.trace ? 1 : 3;
  const std::int64_t start = wall_ns();
  std::vector<RepOut> reps;
  double rss_mb = 0.0;
  while (reps.size() < min_reps ||
         (!opt.trace && seconds_since(start) < opt.seconds)) {
    reps.push_back(replay(opt, shards, true, nullptr, hours, reps.size()));
    if (reps.size() == 1) rss_mb = peak_rss_mb();
    const std::string tag = "rep " + std::to_string(reps.size() - 1);
    print_rep(tag.c_str(), reps.back());
    check_rep(res, tag, reps.back());
  }
  bool same = true;
  for (const auto& r : reps) same = same && r.report_fp == reps[0].report_fp;
  res.check(same, "report JSON identical across repetitions of the seed");

  auto over_reps = [&reps](auto f) {
    std::vector<double> v;
    for (const auto& r : reps) v.push_back(f(r));
    return v;
  };
  const RepOut& a = reps[0];
  if (!opt.trace) {
    const double cs = smoothed_share(a.cold, a.completed);
    const double fs = smoothed_share(a.failed + a.unfinished, a.submitted);
    print_ratio("cold_share", cs, a.cold + 1.0, a.completed + 1.0,
                "(cold + 1) / (completed + 1), one repetition");
    print_ratio("failed_share", fs, a.failed + a.unfinished + 1.0,
                a.submitted + 1.0,
                "(failed + dropped + unfinished + 1) / (submitted + 1)");
    std::printf("overhead percentiles: simulated flow - execution, nearest "
                "rank over %llu invocations (identical in every repetition)\n",
                static_cast<unsigned long long>(a.samples));
    res.add("overhead_p50_ms", a.p50_ms, "ms");
    res.add("overhead_p99_ms", a.p99_ms, "ms");
    res.add("cpu_us_per_inv", fast_cost(over_reps(cpu_us)), "us");
    res.add("inv_per_s", fast_rate(over_reps(inv_per_s)), "1/s");
    res.add("cold_share", cs, "ratio");
    res.add("failed_share", fs, "ratio");
    res.add("peak_rss_mb", rss_mb, "MB");
    res.add("setup_s", median(over_reps([](const RepOut& r) { return r.setup_s; })), "s");
    return res;
  }

  // Traced run: one traced replay, then the costlier checks.
  SpanLog spans(4 * a.submitted + 4096);
  const RepOut t = replay(opt, shards, true, &spans, hours, 0);
  print_rep("traced", t);
  check_rep(res, "traced", t);
  res.check(t.report_fp == a.report_fp, "traced report identical to untraced");
  spans.print_totals(name);
  if (!opt.smoke) spans.write_tsv(opt.out_dir + "/spans-" + name + ".tsv");

  const double done = static_cast<double>(a.completed);
  const double kinv = done / 1000.0;
  if (shards == 0) {
    const RepOut off = replay(opt, shards, false, nullptr, hours, 0);
    print_rep("span tracer off", off);
    check_rep(res, "span tracer off", off);
    res.check(off.report_fp == a.report_fp,
              "report identical with the span tracer off");
    const double tracer_share = 1.0 - off.replay_s / a.replay_s;
    print_ratio("obs.tracer_share", tracer_share, off.replay_s, a.replay_s,
                "1 - replay wall with span tracer off / as shipped");
    res.add("obs.tracer_share", tracer_share, "ratio");
  }
  // The window engine. azure_cluster_sharded is not among the workloads
  // BENCHMARK.json lists (its timings drift with the host beyond the bound),
  // so the serial workload's traced run replays on 2 shards too: the window
  // engine's layer metrics and its byte-identity check then come from a
  // listed workload.
  const RepOut two = shards ? a : replay(opt, 2, true, nullptr, hours, 0);
  if (shards == 0) {
    print_rep("2-shard replay", two);
    check_rep(res, "2-shard replay", two);
    res.check(two.report_fp == a.report_fp,
              "2-shard report byte-identical to the serial replay");
  }
  const RepOut one = replay(opt, 1, true, nullptr, hours, 0);
  print_rep("1-shard replay", one);
  check_rep(res, "1-shard replay", one);
  res.check(one.report_fp == a.report_fp,
            "report byte-identical to a 1-shard replay");
  const double speedup = one.replay_s / two.replay_s;
  print_ratio("runtime.shard_speedup", speedup, one.replay_s, two.replay_s,
              "1-shard replay wall / 2-shard replay wall");
  print_ratio("runtime.windows_per_kinv", two.windows / kinv,
              static_cast<double>(two.windows), kinv,
              "windows / thousand completed, 2 shards");
  print_ratio("runtime.messages_per_kinv", two.messages / kinv,
              static_cast<double>(two.messages), kinv,
              "cross-shard messages / thousand completed, 2 shards");
  res.add("runtime.shard_speedup", speedup, "x");
  res.add("runtime.windows_per_kinv", two.windows / kinv, "count");
  res.add("runtime.messages_per_kinv", two.messages / kinv, "count");

  const double events = static_cast<double>(a.events);
  print_ratio("runtime.events_per_inv", events / done, events, done,
              "engine events / completed");
  print_ratio("runtime.ns_per_event", a.run_for_s * 1e9 / events,
              a.run_for_s * 1e9, events, "wall ns inside run_for / events");
  print_ratio("queueing.bypass_share", a.bypassed / done,
              static_cast<double>(a.bypassed), done, "bypassed / completed");
  print_ratio("keepalive.evictions_per_kinv", a.evictions / kinv,
              static_cast<double>(a.evictions), kinv,
              "evictions / thousand completed");
  print_ratio("lb.forwarded_share",
              static_cast<double>(a.forwarded) / static_cast<double>(a.routed),
              static_cast<double>(a.forwarded), static_cast<double>(a.routed),
              "forwarded / routed");
  print_ratio("bench.trace_overhead", t.replay_s / a.replay_s - 1, t.replay_s,
              a.replay_s, "traced / untraced replay wall, minus 1");

  res.add("runtime.events_per_inv", events / done, "count");
  res.add("runtime.ns_per_event", a.run_for_s * 1e9 / events, "ns");
  res.add("runtime.pending_peak", static_cast<double>(a.pending_peak), "count");
  res.add("core.inflight_peak", static_cast<double>(a.inflight_peak), "count");
  res.add("queueing.depth_peak", static_cast<double>(a.depth_peak), "count");
  res.add("queueing.bypass_share", a.bypassed / done, "ratio");
  res.add("keepalive.evictions_per_kinv", a.evictions / kinv, "count");
  res.add("keepalive.containers_peak", static_cast<double>(a.containers_peak), "count");
  res.add("containers.cpu_tasks_mean", a.cpu_tasks_mean, "count");
  res.add("lb.invoke_ns", spans.mean_ns("lb.invoke"), "ns");
  res.add("lb.forwarded_share",
          static_cast<double>(a.forwarded) / static_cast<double>(a.routed), "ratio");
  res.add("metrics.report_add_ns", spans.mean_ns("metrics.report_add"), "ns");
  res.add("trace.gen_s", a.gen_s, "s");
  res.add("bench.trace_overhead", t.replay_s / a.replay_s - 1, "ratio");
  return res;
}

}  // namespace perfbench
