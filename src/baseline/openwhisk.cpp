#include "baseline/openwhisk.hpp"

#include <stdexcept>

namespace ilu {

OpenWhiskModel::OpenWhiskModel(Runtime& rt, OpenWhiskConfig cfg)
    : rt_(rt),
      cfg_(cfg),
      rng_(cfg.seed),
      cpu_(rt, cfg.cores),
      ka_policy_(cfg.keepalive_policy == "TTL"
                     ? std::make_unique<TtlPolicy>(cfg.keepalive_ttl)
                     : make_policy(cfg.keepalive_policy)),
      pool_(rt, *ka_policy_,
            ContainerPool::Config{.capacity_mb = cfg.memory_mb,
                                  // OpenWhisk evicts on demand, not in the
                                  // background, and keeps no free buffer.
                                  .free_buffer_mb = 0,
                                  .sweep_interval = secs(10)},
            [this](const Container&) {
              // Sandbox teardown happens asynchronously in Docker; nothing
              // else observes it in this model.
              rt_.post([this] { pump_buffer(); });
            }),
      backend_(rt, cpu_, rng_.substream(0x99), cfg.backend) {}

OpenWhiskModel::~OpenWhiskModel() { shutdown(); }

void OpenWhiskModel::start() { pool_.start(); }

void OpenWhiskModel::shutdown() { pool_.stop(); }

FunctionId OpenWhiskModel::register_function(FunctionProfile profile) {
  auto id = static_cast<FunctionId>(functions_.size());
  functions_.push_back(std::move(profile));
  warm_by_fn_.push_back(0);
  cold_by_fn_.push_back(0);
  dropped_by_fn_.push_back(0);
  return id;
}

Duration OpenWhiskModel::stage_latency(const LatencyModel& m) {
  Duration d = m.sample(rng_);
  // Shared-queue / DB contention grows with in-flight invocations.
  d += msecs(cfg_.queue_contention_ms_per_inflight *
             static_cast<double>(inflight_));
  // JVM GC pressure also grows with load.
  double gc_p = cfg_.gc_pause_prob *
                (1.0 + static_cast<double>(inflight_) / cfg_.gc_load_scale);
  if (rng_.bernoulli(std::min(0.5, gc_p))) d += cfg_.gc_pause.sample(rng_);
  return d;
}

void OpenWhiskModel::invoke(FunctionId fn, InvokeCb cb) {
  if (fn >= functions_.size()) {
    throw std::out_of_range("openwhisk invoke: unregistered function");
  }
  // Admission control: "429 system overloaded" when the in-flight cap is
  // reached (the drop path the litmus experiments exercise).
  if (cfg_.max_inflight > 0 && inflight_ >= cfg_.max_inflight) {
    ++dropped_;
    ++dropped_by_fn_[fn];
    InvokeResult r;
    r.success = false;
    r.dropped = true;
    r.fn = fn;
    r.submitted = rt_.now();
    r.completed = rt_.now();
    if (cb) cb(r);
    return;
  }
  PendingHandle p = pending_.emplace();
  Pending& rec = pending_.get(p);
  rec.fn = fn;
  rec.submitted = rt_.now();
  rec.cb = std::move(cb);
  ++inflight_;

  // NGINX -> controller -> Kafka publish/consume, all on the critical path.
  Duration path = stage_latency(cfg_.nginx) + stage_latency(cfg_.controller) +
                  stage_latency(cfg_.kafka);
  rt_.schedule(path, [this, p] { arrive_at_invoker(p); });
}

void OpenWhiskModel::arrive_at_invoker(PendingHandle p) { try_start(p); }

void OpenWhiskModel::try_start(PendingHandle p) {
  FunctionId fn = pending_.get(p).fn;
  ContainerHandle warm = pool_.acquire(fn, rt_.now());
  if (warm.valid()) {
    run_on(p, warm, /*cold=*/false);
    return;
  }
  ContainerHandle fresh = pool_.add_container(fn, functions_[fn], rt_.now());
  if (!fresh.valid()) {
    // No memory: buffer the activation; beyond capacity or timeout, drop it
    // (OpenWhisk "buffers and eventually drops requests").
    if (memory_buffer_.size() >= cfg_.buffer_capacity) {
      drop(p);
      return;
    }
    pending_.get(p).buffered_at = rt_.now();
    memory_buffer_.push_back(p);
    rt_.schedule(cfg_.buffer_timeout, [this, p] {
      // Still buffered after the timeout? Drop it. (If the activation
      // already started, its slot was erased or recycled, so the handle in
      // the buffer no longer compares equal.)
      for (auto it = memory_buffer_.begin(); it != memory_buffer_.end();
           ++it) {
        if (*it == p) {
          memory_buffer_.erase(it);
          drop(p);
          return;
        }
      }
    });
    return;
  }
  // Cold start through Docker; OpenWhisk creates the netns on the critical
  // path every time (no namespace pooling).
  Duration netns_cost = LatencyModel::lognormal(msecs(100), 0.2).sample(rng_);
  rt_.schedule(netns_cost, [this, p, fresh] {
    FunctionId fn = pending_.get(p).fn;
    backend_.create_container(functions_[fn], [this, p, fresh](bool ok) {
      if (!ok) {
        pool_.remove(fresh);
        drop(p);
        return;
      }
      pool_.launch(fresh, rt_.now());
      run_on(p, fresh, /*cold=*/true);
    });
  });
}

void OpenWhiskModel::run_on(PendingHandle p, ContainerHandle c, bool cold) {
  FunctionId fn = pending_.get(p).fn;
  double work =
      to_sec(cold ? functions_[fn].cold_time() : functions_[fn].warm_time);
  // No concurrency regulation: every invocation lands on the CPU at once.
  backend_.invoke(work, functions_[fn].cpus,
                  [this, p, c, cold](bool, Duration actual) {
                    complete(p, c, cold, actual);
                  });
}

void OpenWhiskModel::complete(PendingHandle p, ContainerHandle c, bool cold,
                              Duration actual) {
  // Result logging to CouchDB is on the critical path.
  Duration db = stage_latency(cfg_.couchdb_write);
  rt_.schedule(db, [this, p, c, cold, actual] {
    pool_.return_container(c, rt_.now());
    --inflight_;
    Pending& rec = pending_.get(p);
    InvokeResult r;
    r.success = true;
    r.cold = cold;
    r.fn = rec.fn;
    r.submitted = rec.submitted;
    r.completed = rt_.now();
    r.exec_time = actual;
    ++completed_;
    if (cold) {
      ++cold_count_;
      ++cold_by_fn_[rec.fn];
    } else {
      ++warm_count_;
      ++warm_by_fn_[rec.fn];
    }
    // The callback may reenter invoke() and grow the slab; retire first.
    InvokeCb cb = std::move(rec.cb);
    pending_.erase(p);
    if (cb) cb(r);
    pump_buffer();
  });
}

void OpenWhiskModel::drop(PendingHandle p) {
  --inflight_;
  ++dropped_;
  Pending& rec = pending_.get(p);
  ++dropped_by_fn_[rec.fn];
  InvokeResult r;
  r.success = false;
  r.dropped = true;
  r.fn = rec.fn;
  r.submitted = rec.submitted;
  r.completed = rt_.now();
  InvokeCb cb = std::move(rec.cb);
  pending_.erase(p);
  if (cb) cb(r);
}

void OpenWhiskModel::pump_buffer() {
  if (memory_buffer_.empty()) return;
  PendingHandle p = memory_buffer_.front();
  memory_buffer_.pop_front();
  try_start(p);
}

}  // namespace ilu
