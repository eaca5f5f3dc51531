// live_2m: in-situ open-loop serving. A Worker on the wall-clock RealRuntime
// (64 functions, 4 ms warm time, prewarmed, short-function bypass on, span
// tracer off) receives a fixed 2M invocations/minute from two producer
// threads. Each invocation is timed from its due instant, so generator
// lateness and the producer->loop handoff count toward its overhead.
//
// Latency and CPU are taken per one-second window of due instants and the
// run reports the median over all windows of all stages: on a shared host a
// single scheduling stall of a few tens of ms moves one window's p99, and
// the median keeps it from moving the run's.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/worker.hpp"
#include "runtime/real_runtime.hpp"

namespace perfbench {
namespace {

using namespace ilu;

constexpr std::size_t kFunctions = 64;
constexpr double kPerSecond = 2'000'000.0 / 60.0;
constexpr std::size_t kProducers = 2;
constexpr std::size_t kStages = 3;
/// A run is invalid when the generator's p99 lateness (median over stages)
/// exceeds this.
constexpr double kLateLimitMs = 1.0;
constexpr auto kLeadIn = std::chrono::milliseconds(150);
constexpr auto kCompletionTimeout = std::chrono::seconds(30);

/// bench/live_serve's worker: provisioned so the control plane, not the
/// modelled machine, is the bottleneck.
WorkerConfig live_config() {
  WorkerConfig cfg;
  cfg.name = "live";
  cfg.cores = 384.0;
  cfg.memory_mb = 512 * 1024;
  cfg.regulator.limit = 2048.0;
  cfg.bypass_threshold = msecs(50);
  cfg.bypass_load_limit = 64.0;
  // 8192 rather than live_serve's 2048: the prewarmed containers below take
  // 3200 namespaces, and a cold burst must still find pooled ones instead of
  // queueing ~100 ms each behind the modelled global netns lock.
  cfg.netns.target_size = 8192;
  cfg.netns.low_watermark = 2048;
  cfg.predictive_prewarm = false;
  set_span_tracer(cfg, false);
  return cfg;
}

struct Arrival {
  std::int64_t due_us = 0;  // offset from the stage's load start
  FunctionId fn = 0;
};

/// Constant per-function spacing at the aggregate rate, with seeded phases:
/// the offered rate is exact, the interleaving comes from the seed.
std::vector<Arrival> make_arrivals(std::uint64_t seed, std::size_t stage,
                                   double load_s) {
  SeedRng rng(seed * 0x100000001b3ull + stage);
  const double iat_us = 1e6 * static_cast<double>(kFunctions) / kPerSecond;
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(load_s * kPerSecond) + kFunctions);
  for (std::size_t f = 0; f < kFunctions; ++f) {
    for (double t = rng.uniform() * iat_us; t < load_s * 1e6; t += iat_us) {
      out.push_back({static_cast<std::int64_t>(t), static_cast<FunctionId>(f)});
    }
  }
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.due_us != b.due_us ? a.due_us < b.due_us : a.fn < b.fn;
  });
  return out;
}

struct StageOut {
  // Per one-second window of due instants.
  std::vector<double> win_p50_ms;
  std::vector<double> win_p99_ms;
  std::vector<double> win_cpu_us;
  double gen_s = 0.0;
  double setup_s = 0.0;
  double load_wall_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t samples = 0;
  double cpu_s = 0.0;
  double offered_per_s = 0.0;
  double achieved_per_s = 0.0;
  double late_p99_ms = 0.0;
  double loop_cpu_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // failed + dropped
  std::uint64_t unfinished = 0;
  std::uint64_t cold = 0;
  std::uint64_t bypassed = 0;
  std::uint64_t evictions = 0;
  std::size_t inflight_peak = 0;
  std::size_t depth_peak = 0;
  std::size_t containers_peak = 0;
  std::uint64_t pending_peak = 0;
  double cpu_tasks_mean = 0.0;
  // Traced pass only.
  double handoff_p99_ms = 0.0;
};

/// Loop-thread state of one stage. Touched by producers only through the
/// read-only arrivals and their own slots; everything else is written on the
/// runtime loop thread and read by main after `finished` covers every
/// submission (release/acquire).
struct Stage {
  RealRuntime* rt = nullptr;
  Worker* worker = nullptr;
  const std::vector<Arrival>* arrivals = nullptr;
  std::int64_t base_us = 0;
  bool traced = false;

  LatencyHistogram overhead;
  std::vector<LatencyHistogram> windows;
  LatencyHistogram handoff;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cold = 0;
  std::uint64_t bypassed = 0;
  std::int64_t last_done_us = 0;
  std::atomic<std::uint64_t> finished{0};

  // Loop-thread sampler (every 10 ms of load).
  std::atomic<bool> sampling{true};
  std::size_t inflight_peak = 0;
  std::size_t depth_peak = 0;
  std::size_t containers_peak = 0;
  std::uint64_t pending_peak = 0;
  double cpu_tasks_sum = 0.0;
  std::uint64_t samples = 0;

  std::unique_ptr<SpanLog> loop_log;  // traced: loop-thread spans

  void complete(std::uint32_t i, const InvokeResult& r) {
    const std::int64_t due = base_us + (*arrivals)[i].due_us;
    LatencyHistogram& win = windows[static_cast<std::size_t>((*arrivals)[i].due_us / 1'000'000)];
    if (r.dropped || !r.success) {
      ++failed;
      overhead.add_missing();
      win.add_missing();
    } else {
      ++completed;
      cold += r.cold ? 1 : 0;
      bypassed += r.bypassed ? 1 : 0;
      const std::int64_t us = r.completed.count() - due - r.exec_time.count();
      overhead.add_us(us);
      win.add_us(us);
    }
    last_done_us = std::max(last_done_us, r.completed.count());
    if (loop_log) {
      const std::int64_t epoch_ns = rt->epoch_steady().time_since_epoch() /
                                    std::chrono::nanoseconds(1);
      loop_log->add("bench.invocation", i, -1, epoch_ns + due * 1000,
                    epoch_ns + r.completed.count() * 1000);
    }
    finished.fetch_add(1, std::memory_order_release);
  }

  void sample() {
    const Worker::Status s = worker->status();
    inflight_peak = std::max(inflight_peak, s.running + s.queue_len);
    depth_peak = std::max(depth_peak, s.queue_len);
    containers_peak = std::max(containers_peak, worker->pool().total_count());
    pending_peak = std::max(pending_peak, rt->pending());
    cpu_tasks_sum += static_cast<double>(worker->cpu().running());
    ++samples;
    if (sampling.load(std::memory_order_relaxed)) {
      rt->schedule(msecs(10), [this] { sample(); });
    }
  }
};

/// Post `fn` to the loop thread and wait for it to finish.
template <class Fn>
void on_loop(RealRuntime& rt, Fn fn) {
  std::atomic<bool> done{false};
  rt.post([&fn, &done] {
    fn();
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

struct ProducerOut {
  LatencyHistogram late;
  std::uint64_t posted = 0;
  std::unique_ptr<SpanLog> log;
};

void produce(Stage& st, std::size_t p, ProducerOut& out) {
  // Wake at the due instant, not up to the default 50 us timer slack later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto& arr = *st.arrivals;
  const auto epoch = st.rt->epoch_steady();
  for (std::size_t i = p; i < arr.size(); i += kProducers) {
    const std::int64_t due = st.base_us + arr[i].due_us;
    std::this_thread::sleep_until(epoch + std::chrono::microseconds(due));
    const std::int64_t sent_us = st.rt->now().count();
    out.late.add_us(sent_us - due);
    const auto idx = static_cast<std::uint32_t>(i);
    const FunctionId fn = arr[i].fn;
    Stage* s = &st;
    auto task = [s, idx, fn, sent_us] {
      if (s->traced) {
        s->handoff.add_us(s->rt->now().count() - sent_us);
        ScopedSpan span(s->loop_log.get(), "core.invoke", idx);
        s->worker->invoke(fn, [s, idx](const InvokeResult& r) {
          s->complete(idx, r);
        });
      } else {
        s->worker->invoke(fn, [s, idx](const InvokeResult& r) {
          s->complete(idx, r);
        });
      }
    };
    if (out.log) {
      const std::int64_t t0 = wall_ns();
      st.rt->post(std::move(task));
      out.log->add("runtime.post", i, -1, t0, wall_ns());
    } else {
      st.rt->post(std::move(task));
    }
    ++out.posted;
  }
}

StageOut run_stage(const Options& opt, std::size_t stage, double load_s,
                   bool traced, SpanLog* spans_out) {
  StageOut out;
  // Set-up: inputs, runtime, worker, registration and prewarm.
  const std::int64_t setup_start = wall_ns();
  const std::vector<Arrival> arrivals = make_arrivals(opt.seed, stage, load_s);
  out.gen_s = seconds_since(setup_start);

  auto rt = std::make_unique<RealRuntime>();
  auto w = std::make_unique<Worker>(*rt, live_config());
  std::vector<FunctionId> fns;
  for (std::size_t f = 0; f < kFunctions; ++f) {
    FunctionProfile p;
    p.name = "live_fn_" + std::to_string(f);
    p.mem_mb = 128;
    p.warm_time = msecs(4);
    p.init_time = msecs(20);
    fns.push_back(w->register_function(p));
  }
  w->start();
  {
    // Enough warm containers per function for its peak overlap (per-function
    // rate x ~6 ms busy, 16x headroom: with live_serve's 4x, now and then a
    // stall of the shared host let the backlog outrun the warm pool into a
    // cold storm; 16x absorbs a stall of ~90 ms), then one invocation each
    // so every client path is hot.
    const auto prewarms = static_cast<std::size_t>(std::max(
        4.0, std::ceil(kPerSecond / kFunctions * 0.006 * 16.0)));
    std::atomic<std::size_t> warmed{0};
    Worker* wp = w.get();
    for (FunctionId f : fns) {
      for (std::size_t k = 0; k < prewarms; ++k) {
        rt->post([wp, &warmed, f] {
          wp->prewarm(f, [&warmed](bool) {
            warmed.fetch_add(1, std::memory_order_release);
          });
        });
      }
    }
    while (warmed.load(std::memory_order_acquire) < fns.size() * prewarms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    warmed.store(0, std::memory_order_relaxed);
    for (FunctionId f : fns) {
      rt->post([wp, &warmed, f] {
        wp->invoke(f, [&warmed](const InvokeResult&) {
          warmed.fetch_add(1, std::memory_order_release);
        });
      });
    }
    while (warmed.load(std::memory_order_acquire) < fns.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  out.setup_s = seconds_since(setup_start);

  Stage st;
  st.rt = rt.get();
  st.worker = w.get();
  st.arrivals = &arrivals;
  st.traced = traced;
  const auto n_windows = static_cast<std::size_t>(std::ceil(load_s));
  st.windows.resize(n_windows);
  if (traced) st.loop_log = std::make_unique<SpanLog>(2 * arrivals.size() + 16);
  std::vector<ProducerOut> prod(kProducers);
  for (auto& p : prod) {
    if (traced) p.log = std::make_unique<SpanLog>(arrivals.size() / kProducers + 16);
  }

  std::uint64_t evictions0 = 0;
  std::uint64_t events0 = 0;
  double loop_cpu0 = 0.0;
  on_loop(*rt, [&] {
    evictions0 = w->pool().evictions();
    events0 = rt->executed();
    loop_cpu0 = thread_cpu_s();
    st.sample();
  });
  st.base_us = rt->now().count() +
               std::chrono::duration_cast<std::chrono::microseconds>(kLeadIn).count();
  const double cpu0 = process_cpu_s();
  {
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&st, &prod, p] { produce(st, p, prod[p]); });
    }
    // Process CPU per completion in each one-second window of the load.
    const auto load_start = rt->epoch_steady() + std::chrono::microseconds(st.base_us);
    std::this_thread::sleep_until(load_start);
    double cpu_mark = process_cpu_s();
    std::uint64_t done_mark = st.finished.load(std::memory_order_acquire);
    for (std::size_t k = 1; k <= n_windows; ++k) {
      std::this_thread::sleep_until(load_start + std::chrono::seconds(k));
      const double cpu = process_cpu_s();
      const std::uint64_t done = st.finished.load(std::memory_order_acquire);
      if (done > done_mark) {
        out.win_cpu_us.push_back((cpu - cpu_mark) * 1e6 /
                                 static_cast<double>(done - done_mark));
      }
      cpu_mark = cpu;
      done_mark = done;
    }
    for (auto& t : threads) t.join();
  }
  std::uint64_t submitted = 0;
  for (const auto& p : prod) submitted += p.posted;
  const auto deadline = std::chrono::steady_clock::now() + kCompletionTimeout;
  while (st.finished.load(std::memory_order_acquire) < submitted &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  out.cpu_s = process_cpu_s() - cpu0;
  st.sampling.store(false, std::memory_order_relaxed);
  on_loop(*rt, [&] {
    out.loop_cpu_s = thread_cpu_s() - loop_cpu0;
    out.events = rt->executed() - events0;
    out.evictions = w->pool().evictions() - evictions0;
  });
  std::atomic<bool> down{false};
  rt->post([&w, &down] {
    w->shutdown();
    down.store(true, std::memory_order_release);
  });
  while (!down.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt->shutdown();

  const std::uint64_t finished = st.finished.load(std::memory_order_acquire);
  out.submitted = submitted;
  out.completed = st.completed;
  out.failed = st.failed;
  out.unfinished = submitted > finished ? submitted - finished : 0;
  st.overhead.add_missing(out.unfinished);
  out.cold = st.cold;
  out.bypassed = st.bypassed;
  out.samples = st.overhead.count();
  out.p50_ms = st.overhead.percentile_ms(0.50);
  out.p99_ms = st.overhead.percentile_ms(0.99);
  for (const auto& win : st.windows) {
    out.win_p50_ms.push_back(win.percentile_ms(0.50));
    out.win_p99_ms.push_back(win.percentile_ms(0.99));
  }
  LatencyHistogram late;
  for (const auto& p : prod) late.merge(p.late);
  out.late_p99_ms = late.percentile_ms(0.99);
  const double span_s =
      arrivals.empty() ? 0.0 : static_cast<double>(arrivals.back().due_us) / 1e6;
  out.offered_per_s = span_s > 0.0 ? static_cast<double>(arrivals.size()) / span_s : 0.0;
  out.load_wall_s = static_cast<double>(st.last_done_us - st.base_us) / 1e6;
  out.achieved_per_s =
      out.load_wall_s > 0.0 ? static_cast<double>(out.completed) / out.load_wall_s : 0.0;
  out.inflight_peak = st.inflight_peak;
  out.depth_peak = st.depth_peak;
  out.containers_peak = st.containers_peak;
  out.pending_peak = st.pending_peak;
  out.cpu_tasks_mean = st.samples ? st.cpu_tasks_sum / static_cast<double>(st.samples) : 0.0;
  if (traced) {
    out.handoff_p99_ms = st.handoff.percentile_ms(0.99);
    // One log: every invocation's root span is its bench.invocation (due ->
    // completion); its runtime.post and core.invoke spans are its children.
    SpanLog& log = *spans_out;
    const std::int64_t off = log.merge(*st.loop_log);
    std::vector<std::int64_t> root(arrivals.size(), -1);
    for (std::size_t k = static_cast<std::size_t>(off); k < log.spans().size(); ++k) {
      const auto& s = log.spans()[k];
      if (s.name == "bench.invocation") root[s.inv] = static_cast<std::int64_t>(k);
    }
    for (const auto& p : prod) log.merge(*p.log);
    for (auto& s : log.spans()) {
      if (s.inv != SpanLog::kNoInv && s.name != "bench.invocation" &&
          s.inv < root.size()) {
        s.parent = root[s.inv];
      }
    }
  }
  w.reset();
  return out;
}

void print_stage(std::size_t i, const StageOut& s, bool traced) {
  std::printf(
      "stage %zu%s: setup %.3f s, offered %.0f/s, achieved %.0f/s over %.3f s, "
      "submitted %llu completed %llu failed %llu unfinished %llu cold %llu\n"
      "         overhead p50 %.3f ms p99 %.3f ms (n=%llu), generator late p99 "
      "%.3f ms, cpu %.2f us/inv, loop busy %.3f\n",
      i, traced ? " [traced]" : "", s.setup_s, s.offered_per_s,
      s.achieved_per_s, s.load_wall_s,
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.unfinished),
      static_cast<unsigned long long>(s.cold), s.p50_ms, s.p99_ms,
      static_cast<unsigned long long>(s.samples), s.late_p99_ms,
      s.completed ? s.cpu_s * 1e6 / static_cast<double>(s.completed) : 0.0,
      s.load_wall_s > 0.0 ? s.loop_cpu_s / s.load_wall_s : 0.0);
  std::printf("         per-second windows: p99 ms");
  for (double v : s.win_p99_ms) std::printf(" %.3f", v);
  std::printf(", cpu us/inv");
  for (double v : s.win_cpu_us) std::printf(" %.2f", v);
  std::printf("\n");
}

std::vector<StageOut> run_pass(const Options& opt, double load_s, bool traced,
                               SpanLog* spans, Result& res) {
  std::vector<StageOut> stages;
  for (std::size_t i = 0; i < kStages; ++i) {
    stages.push_back(run_stage(opt, i, load_s, traced, spans));
    const StageOut& s = stages.back();
    print_stage(i, s, traced);
    res.attempted += s.submitted;
    res.failed += s.failed + s.unfinished;
    const std::string tag = "stage " + std::to_string(i) + (traced ? " traced" : "");
    res.check(s.submitted == s.completed + s.failed + s.unfinished &&
                  s.unfinished == 0,
              tag + ": submitted = completed + failed, none outstanding");
    res.check(s.achieved_per_s >= 0.99 * s.offered_per_s,
              tag + ": achieved rate >= 99% of offered");
  }
  std::vector<double> late;
  for (const auto& s : stages) late.push_back(s.late_p99_ms);
  res.check(median(late) <= kLateLimitMs,
            std::string(traced ? "traced: " : "") +
                "generator p99 lateness <= 1 ms (median over stages)");
  return stages;
}

template <class F>
double med(const std::vector<StageOut>& v, F f) {
  std::vector<double> xs;
  for (const auto& s : v) xs.push_back(f(s));
  return median(xs);
}

/// Median over every one-second window of every stage.
double window_median(const std::vector<StageOut>& v,
                     std::vector<double> StageOut::*field) {
  std::vector<double> xs;
  for (const auto& s : v) xs.insert(xs.end(), (s.*field).begin(), (s.*field).end());
  return median(xs);
}

}  // namespace

Result run_live(const Options& opt) {
  Result res;
  // Whole seconds, so every latency window is a full one.
  const double load_s = std::max(1.0, std::floor(opt.seconds / kStages));
  std::printf("live_2m: %zu stages x %.0f s at %.0f inv/s, %zu functions, "
              "%zu producers\n",
              kStages, load_s, kPerSecond, kFunctions, kProducers);
  const auto plain = run_pass(opt, load_s, false, nullptr, res);

  std::uint64_t completed = 0, cold = 0, submitted = 0, failed = 0;
  for (const auto& s : plain) {
    completed += s.completed;
    cold += s.cold;
    submitted += s.submitted;
    failed += s.failed + s.unfinished;
  }
  if (!opt.trace) {
    const double cs = smoothed_share(cold, completed);
    const double fs = smoothed_share(failed, submitted);
    print_ratio("cold_share", cs, cold + 1.0, completed + 1.0,
                "(cold + 1) / (completed + 1)");
    print_ratio("failed_share", fs, failed + 1.0, submitted + 1.0,
                "(failed + dropped + unfinished + 1) / (submitted + 1)");
    const double windows = static_cast<double>(plain.size()) * load_s;
    std::printf("overhead percentiles and cpu: median over %.0f one-second "
                "windows (%.0f invocations each) of per-window nearest-rank "
                "values; %llu samples in all\n",
                windows, static_cast<double>(submitted) / windows,
                static_cast<unsigned long long>(submitted));
    res.add("overhead_p50_ms", window_median(plain, &StageOut::win_p50_ms), "ms");
    res.add("overhead_p99_ms", window_median(plain, &StageOut::win_p99_ms), "ms");
    res.add("cpu_us_per_inv", window_median(plain, &StageOut::win_cpu_us), "us");
    res.add("inv_per_s", med(plain, [](auto& s) { return s.achieved_per_s; }), "1/s");
    res.add("cold_share", cs, "ratio");
    res.add("failed_share", fs, "ratio");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("setup_s", med(plain, [](auto& s) { return s.setup_s; }), "s");
    return res;
  }

  SpanLog spans;
  const auto traced = run_pass(opt, load_s, true, &spans, res);
  spans.print_totals("live_2m traced pass");
  if (!opt.smoke) spans.write_tsv(opt.out_dir + "/spans-live_2m.tsv");

  double events = 0, loop_cpu = 0, wall = 0, evictions = 0, bypassed = 0;
  for (const auto& s : plain) {
    events += static_cast<double>(s.events);
    loop_cpu += s.loop_cpu_s;
    wall += s.load_wall_s;
    evictions += static_cast<double>(s.evictions);
    bypassed += static_cast<double>(s.bypassed);
  }
  const double done = static_cast<double>(completed);
  const double cpu_plain = window_median(plain, &StageOut::win_cpu_us);
  const double cpu_traced = window_median(traced, &StageOut::win_cpu_us);
  print_ratio("runtime.events_per_inv", events / done, events, done,
              "loop events / completed");
  print_ratio("runtime.ns_per_event", loop_cpu * 1e9 / events, loop_cpu * 1e9,
              events, "loop-thread CPU ns / loop events");
  print_ratio("runtime.loop_busy_share", loop_cpu / wall, loop_cpu, wall,
              "loop-thread CPU s / load wall s");
  print_ratio("queueing.bypass_share", bypassed / done, bypassed, done,
              "bypassed / completed");
  print_ratio("keepalive.evictions_per_kinv", 1000 * evictions / done,
              evictions, done / 1000, "evictions / thousand completed");
  print_ratio("bench.trace_overhead", cpu_traced / cpu_plain - 1, cpu_traced,
              cpu_plain, "traced / untraced CPU-us per invocation, minus 1");

  auto peak = [&plain](auto f) {
    double m = 0;
    for (const auto& s : plain) m = std::max(m, static_cast<double>(f(s)));
    return m;
  };
  res.add("runtime.events_per_inv", events / done, "count");
  res.add("runtime.ns_per_event", loop_cpu * 1e9 / events, "ns");
  res.add("runtime.pending_peak", peak([](auto& s) { return s.pending_peak; }), "count");
  res.add("runtime.post_ns", spans.mean_ns("runtime.post"), "ns");
  res.add("runtime.handoff_p99_ms",
          med(traced, [](auto& s) { return s.handoff_p99_ms; }), "ms");
  res.add("runtime.loop_busy_share", loop_cpu / wall, "ratio");
  res.add("core.invoke_ns", spans.mean_ns("core.invoke"), "ns");
  res.add("core.inflight_peak", peak([](auto& s) { return s.inflight_peak; }), "count");
  res.add("queueing.depth_peak", peak([](auto& s) { return s.depth_peak; }), "count");
  res.add("queueing.bypass_share", bypassed / done, "ratio");
  res.add("keepalive.evictions_per_kinv", 1000 * evictions / done, "count");
  res.add("keepalive.containers_peak",
          peak([](auto& s) { return s.containers_peak; }), "count");
  res.add("containers.cpu_tasks_mean",
          med(plain, [](auto& s) { return s.cpu_tasks_mean; }), "count");
  res.add("trace.gen_s", med(plain, [](auto& s) { return s.gen_s; }), "s");
  res.add("exp.generator_late_p99_ms",
          med(plain, [](auto& s) { return s.late_p99_ms; }), "ms");
  res.add("bench.trace_overhead", cpu_traced / cpu_plain - 1, "ratio");
  return res;
}

}  // namespace perfbench
