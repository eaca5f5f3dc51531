#include "core/worker.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "keepalive/policy.hpp"

namespace ilu {

namespace {
/// Table 1 calibration helper: lognormal around the paper's measured median
/// with a modest tail, plus a rare OS-noise spike.
LatencyModel tab1(double ms) {
  return LatencyModel::spiky(LatencyModel::lognormal(msecs(ms), 0.25),
                             /*p=*/0.0005,
                             LatencyModel::lognormal(msecs(2.0), 0.8));
}
}  // namespace

ControlPlaneLatencies ControlPlaneLatencies::iluvatar_defaults() {
  ControlPlaneLatencies l;
  l.invoke = tab1(0.026);
  l.sync_invoke = tab1(0.013);
  l.enqueue_invocation = tab1(0.017);
  l.add_item_to_q = tab1(0.020);
  l.spawn_worker = tab1(0.029);
  l.dequeue = tab1(0.020);
  l.acquire_container = tab1(0.096);
  l.try_lock_container = tab1(0.014);
  l.prepare_invoke = tab1(0.154);
  l.call_container = tab1(1.364);
  l.download_result = tab1(0.032);
  l.return_container = tab1(0.017);
  l.return_results = tab1(0.266);
  l.http_connect = LatencyModel::lognormal(msecs(3.0), 0.20);
  return l;
}

Worker::Worker(Runtime& rt, WorkerConfig cfg)
    : Worker(rt, std::move(cfg), nullptr) {}

Worker::Worker(Runtime& rt, WorkerConfig cfg,
               const std::vector<FunctionProfile>& functions)
    : Worker(rt, std::move(cfg), &functions) {}

Worker::Worker(Runtime& rt, WorkerConfig cfg,
               const std::vector<FunctionProfile>* shared_functions)
    : rt_(rt),
      cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      functions_(shared_functions != nullptr ? *shared_functions
                                             : own_functions_),
      cpu_(rt, cfg_.cores),
      ka_policy_(make_policy(cfg_.keepalive_policy)),
      pool_(rt, *ka_policy_,
            [&] {
              auto pc = cfg_.pool;
              pc.capacity_mb = cfg_.memory_mb;
              return pc;
            }(),
            [this](const Container& c) {
              // Destroy the sandbox off the critical path; memory was
              // already released by the pool. The record dies when this
              // callback returns, so copy out the netns id.
              std::uint64_t ns = c.netns_id;
              backend_.destroy_container([this, ns](bool) {
                netns_.release(ns);
                on_memory_released();
              });
            }),
      netns_(rt, rng_.substream(0x41), cfg_.netns),
      backend_(rt, cpu_, rng_.substream(0x42), cfg_.backend, cfg_.faults),
      q_policy_(make_queue_policy(cfg_.queue_policy)),
      queue_(*q_policy_, chars_),
      regulator_(cfg_.regulator) {
  queue_.set_flight_clock(&rt_);
  if (cfg_.predictive_prewarm) {
    pool_.set_prewarm_requester([this](FunctionId fn, TimePoint at) {
      if (!started_ || pending_prewarms_.count(fn) > 0) return;
      pending_prewarms_.insert(fn);
      Duration delay = at > rt_.now() ? at - rt_.now() : Duration::zero();
      rt_.schedule(delay, [this, fn] {
        pending_prewarms_.erase(fn);
        if (!started_ || pool_.has_idle(fn)) return;
        prewarm(fn);
      });
    });
  }
}

Worker::~Worker() { shutdown(); }

void Worker::start() {
  if (started_) return;
  started_ = true;
  pool_.start();
  if (regulator_.config().dynamic) schedule_regulator_tick();
}

void Worker::shutdown() {
  started_ = false;
  pool_.stop();
  if (regulator_timer_ != Runtime::kInvalidTimer) {
    rt_.cancel(regulator_timer_);
    regulator_timer_ = Runtime::kInvalidTimer;
  }
}

void Worker::schedule_regulator_tick() {
  regulator_timer_ =
      rt_.schedule(regulator_.config().interval, [this] {
        regulator_timer_ = Runtime::kInvalidTimer;
        if (!started_) return;
        regulator_.tick(cpu_.load_average() / cfg_.cores,
                        recent_stretch_.mean());
        pump();
        schedule_regulator_tick();
      });
}

FunctionId Worker::register_function(FunctionProfile profile) {
  if (&functions_ != &own_functions_) {
    throw std::logic_error("register_function: " + cfg_.name +
                           " reads its cluster's function table; register "
                           "through the Cluster");
  }
  // Image fetch and layer preparation happen out of band (§4.2); only the
  // registry bookkeeping is on this path.
  auto id = static_cast<FunctionId>(own_functions_.size());
  own_functions_.push_back(std::move(profile));
  return id;
}

const FunctionProfile& Worker::profile(FunctionId fn) const {
  return functions_.at(fn);
}

double Worker::cp_scale() const {
  double over = (cpu_.demand() - cfg_.cores) / cfg_.cores;
  if (over <= 0.0) return 1.0;
  return 1.0 + cfg_.cp_contention_factor * over;
}

Duration Worker::span(flight::Ev stage, const LatencyModel& model,
                      Duration offset) {
  Duration d = model.sample(rng_);
  d = Duration{static_cast<std::int64_t>(
      static_cast<double>(d.count()) * cp_scale())};
  flight::record(rt_.now() + offset, stage,
                 static_cast<std::uint32_t>(std::clamp<std::int64_t>(
                     d.count(), 0, std::numeric_limits<std::uint32_t>::max())));
  return d;
}

void Worker::invoke(FunctionId fn, InvokeCb cb) {
  if (fn >= functions_.size()) {
    throw std::out_of_range("invoke: unregistered function");
  }
  PendingHandle p = pending_.emplace();
  Pending& rec = pending_.get(p);
  rec.fn = fn;
  rec.submitted = rt_.now();
  rec.cb = std::move(cb);
  flight::record(rec.submitted, flight::Ev::kInvokeArrival, fn);
  chars_.on_arrival(fn, rec.submitted);
  // Keep-alive policies observe every arrival (HIST builds its IAT
  // histograms from this, independent of cache contents).
  ka_policy_->on_invocation(fn, rec.submitted);

  // Ingestion stages (Table 1 group 1), laid out back to back in time.
  using flight::Ev;
  const auto& L = cfg_.latencies;
  Duration ingest{};
  ingest += span(Ev::kStageInvoke, L.invoke, ingest);
  ingest += span(Ev::kStageSyncInvoke, L.sync_invoke, ingest);
  ingest += span(Ev::kStageEnqueueInvocation, L.enqueue_invocation, ingest);
  ingest += span(Ev::kStageAddItemToQ, L.add_item_to_q, ingest);
  rec.pre_overhead = ingest;
  rt_.schedule(ingest, [this, p] { enqueue(p); });
}

Worker::AsyncToken Worker::async_invoke(FunctionId fn) {
  AsyncToken token = next_token_++;
  invoke(fn, [this, token](const InvokeResult& r) {
    async_results_[token] = r;
  });
  return token;
}

std::optional<InvokeResult> Worker::async_result(AsyncToken token) {
  auto it = async_results_.find(token);
  if (it == async_results_.end()) return std::nullopt;
  InvokeResult r = it->second;
  async_results_.erase(it);
  return r;
}

void Worker::enqueue(PendingHandle p) {
  Pending& rec = pending_.get(p);
  // Short-function bypass (§5.1): skip the queue entirely when the function
  // is known-short and the system is not overloaded.
  if (cfg_.bypass_threshold > Duration::zero()) {
    Duration expected = chars_.expected_warm(rec.fn);
    double norm_load = cpu_.load_average() / cfg_.cores;
    if (expected > Duration::zero() && expected <= cfg_.bypass_threshold &&
        norm_load < cfg_.bypass_load_limit) {
      rec.bypassed = true;
      ++bypassed_;
      ++running_;
      dispatch(p);
      return;
    }
  }
  FunctionId fn = rec.fn;
  QueueItem item;
  item.fn = fn;
  item.arrival = rec.submitted;
  item.dispatch = [this, p] {
    ++running_;
    dispatch(p);
  };
  queue_.push(std::move(item), pool_.has_idle(fn));
  pump();
}

void Worker::pump() {
  while (!queue_.empty() && regulator_.can_dispatch(running_)) {
    auto item = queue_.pop();
    item->dispatch();
  }
}

void Worker::dispatch(PendingHandle p) {
  using flight::Ev;
  const auto& L = cfg_.latencies;
  Pending& rec = pending_.get(p);
  Duration d{};
  d += span(Ev::kStageSpawnWorker, L.spawn_worker, d);
  d += span(Ev::kStageDequeue, L.dequeue, d);
  d += span(Ev::kStageAcquireContainer, L.acquire_container, d);
  ContainerHandle c = pool_.acquire(rec.fn, rt_.now());
  if (c.valid()) {
    d += span(Ev::kStageTryLockContainer, L.try_lock_container, d);
    rec.pre_overhead += d;
    rt_.schedule(d, [this, p, c] { launch_exec(p, c, /*cold=*/false); });
    return;
  }
  rec.pre_overhead += d;
  rt_.schedule(d, [this, p] { cold_start(p); });
}

void Worker::cold_start(PendingHandle p) {
  FunctionId fn = pending_.get(p).fn;
  std::size_t sync_evictions = 0;
  ContainerHandle c =
      pool_.add_container(fn, functions_[fn], rt_.now(), &sync_evictions);
  if (!c.valid()) {
    --running_;
    if (functions_[fn].mem_mb > cfg_.memory_mb) {
      // Larger than the worker: no release can ever make room.
      fail(p);
      pump();
      return;
    }
    // Memory exhausted by busy containers: park until something frees.
    flight::record(rt_.now(), flight::Ev::kMemoryPark, fn);
    waiting_memory_.push_back(p);
    return;
  }
  // Victims evicted synchronously must be torn down before their memory is
  // truly reusable: that teardown lands on this invocation's critical path
  // (the jitter that background eviction with a free buffer avoids,
  // §4.3.2).
  Duration evict_penalty{};
  for (std::size_t i = 0; i < sync_evictions; ++i) {
    evict_penalty += cfg_.backend.destroy.sample(rng_);
  }
  netns_.acquire([this, p, c, evict_penalty](std::uint64_t netns_id,
                                             Duration penalty) {
    pool_.get(c).netns_id = netns_id;
    // The netns penalty (if any) is on the critical path before create.
    rt_.schedule(penalty + evict_penalty, [this, p, c] {
      FunctionId fn = pending_.get(p).fn;
      backend_.create_container(functions_[fn], [this, p, c](bool ok) {
        if (!ok) {
          pool_.remove(c);
          Pending& rec = pending_.get(p);
          ++rec.create_attempts;
          if (rec.create_attempts <= cfg_.create_retries) {
            cold_start(p);
          } else {
            --running_;
            fail(p);
            // The failed create freed its reservation: parked invocations
            // may fit now.
            on_memory_released();
            pump();
          }
          return;
        }
        pool_.launch(c, rt_.now());
        launch_exec(p, c, /*cold=*/true);
      });
    });
  });
}

void Worker::launch_exec(PendingHandle p, ContainerHandle c, bool cold) {
  using flight::Ev;
  const auto& L = cfg_.latencies;
  Pending& rec = pending_.get(p);
  Duration d{};
  d += span(Ev::kStagePrepareInvoke, L.prepare_invoke, d);
  d += span(Ev::kStageCallContainer, L.call_container, d);
  Container& cc = pool_.get(c);
  if (!cc.http_client_cached) {
    // First call to this container: HTTP client setup (§4.3.1).
    d += L.http_connect.sample(rng_);
    cc.http_client_cached = true;
  }
  rec.pre_overhead += d;
  rt_.schedule(d, [this, p, c, cold] {
    Pending& r = pending_.get(p);
    r.exec_started = rt_.now();
    FunctionId fn = r.fn;
    double work = to_sec(cold ? functions_[fn].cold_time()
                              : functions_[fn].warm_time);
    backend_.invoke(work, functions_[fn].cpus,
                    [this, p, c, cold](bool ok, Duration actual) {
                      finish(p, c, cold, ok, actual);
                    });
  });
}

void Worker::finish(PendingHandle p, ContainerHandle c, bool cold, bool ok,
                    Duration actual_exec) {
  using flight::Ev;
  const auto& L = cfg_.latencies;
  Duration d{};
  d += span(Ev::kStageDownloadResult, L.download_result, d);
  d += span(Ev::kStageReturnContainer, L.return_container, d);
  d += span(Ev::kStageReturnResults, L.return_results, d);
  rt_.schedule(d, [this, p, c, cold, ok, actual_exec] {
    pool_.return_container(c, rt_.now());
    --running_;
    if (ok) {
      Pending& rec = pending_.get(p);
      InvokeResult r;
      r.success = true;
      r.cold = cold;
      r.bypassed = rec.bypassed;
      r.fn = rec.fn;
      r.submitted = rec.submitted;
      r.exec_started = rec.exec_started;
      r.completed = rt_.now();
      r.exec_time = actual_exec;
      r.queue_wait = (rec.exec_started - rec.submitted) - rec.pre_overhead;
      if (r.queue_wait < Duration::zero()) r.queue_wait = Duration::zero();
      flight::record(r.completed, flight::Ev::kComplete, rec.fn);
      ++completed_;
      // Congestion signal per §5.1: "the increase in execution time" —
      // contention inflation of execution, NOT flow stretch (flow stretch
      // includes queueing, so shrinking the limit would raise the signal
      // and death-spiral the controller).
      Duration base =
          cold ? functions_[rec.fn].cold_time() : functions_[rec.fn].warm_time;
      if (base > Duration::zero()) {
        recent_stretch_.add(static_cast<double>(actual_exec.count()) /
                            static_cast<double>(base.count()));
      }
      if (cold) {
        ++cold_starts_;
        chars_.record_cold(rec.fn, actual_exec);
      } else {
        ++warm_starts_;
        chars_.record_warm(rec.fn, actual_exec);
      }
      // The callback may reenter invoke() and grow the slab, so retire the
      // pending first and call the moved-out callback last.
      InvokeCb cb = std::move(rec.cb);
      pending_.erase(p);
      if (cb) cb(r);
    } else {
      fail(p);
    }
    on_memory_released();
    pump();
  });
}

void Worker::fail(PendingHandle p) {
  ++failures_;
  Pending& rec = pending_.get(p);
  flight::record(rt_.now(), flight::Ev::kFailure, rec.fn);
  InvokeResult r;
  r.success = false;
  r.fn = rec.fn;
  r.submitted = rec.submitted;
  r.completed = rt_.now();
  InvokeCb cb = std::move(rec.cb);
  pending_.erase(p);
  if (cb) cb(r);
}

void Worker::on_memory_released() {
  if (waiting_memory_.empty()) return;
  // Give parked invocations another chance, preserving arrival order.
  auto parked = std::move(waiting_memory_);
  waiting_memory_.clear();
  for (PendingHandle p : parked) {
    Pending& rec = pending_.get(p);
    FunctionId fn = rec.fn;
    QueueItem item;
    item.fn = fn;
    item.arrival = rec.submitted;
    item.dispatch = [this, p] {
      ++running_;
      dispatch(p);
    };
    queue_.push(std::move(item), pool_.has_idle(fn));
  }
  pump();
}

void Worker::prewarm(FunctionId fn, std::function<void(bool)> cb) {
  if (fn >= functions_.size()) {
    throw std::out_of_range("prewarm: unregistered function");
  }
  ContainerHandle c = pool_.add_container(fn, functions_[fn], rt_.now());
  if (!c.valid()) {
    if (cb) cb(false);
    return;
  }
  netns_.acquire([this, fn, c, cb](std::uint64_t netns_id, Duration penalty) {
    pool_.get(c).netns_id = netns_id;
    rt_.schedule(penalty, [this, fn, c, cb] {
      backend_.create_container(functions_[fn], [this, fn, c, cb](bool ok) {
        if (!ok) {
          pool_.remove(c);
          if (cb) cb(false);
          on_memory_released();
          return;
        }
        pool_.park_prewarmed(c, rt_.now());
        flight::record(rt_.now(), flight::Ev::kPrewarm, fn);
        ++prewarms_;
        if (cb) cb(true);
        // An invocation may have parked behind this create's reservation:
        // the idle container is now evictable (or is the one it wants).
        on_memory_released();
      });
    });
  });
}

Worker::Status Worker::status() const {
  Status s;
  s.queue_len = queue_.size();
  s.running = running_;
  s.parked = waiting_memory_.size();
  s.load_average = cpu_.load_average();
  s.normalized_load = s.load_average / cfg_.cores;
  s.used_mb = pool_.used_mb();
  s.free_mb = pool_.free_mb();
  s.concurrency_limit = regulator_.limit();
  return s;
}

}  // namespace ilu
