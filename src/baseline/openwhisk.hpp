#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "containers/backend.hpp"
#include "containers/cpu_model.hpp"
#include "keepalive/policy.hpp"
#include "keepalive/pool.hpp"
#include "runtime/latency.hpp"
#include "runtime/runtime.hpp"
#include "runtime/slab.hpp"

/// Behavioural model of the OpenWhisk control plane, the paper's baseline.
///
/// Only externally visible behaviour is modeled, with every number taken
/// from the paper's own measurements and description (§2.2/§2.3):
///  - invocation path: NGINX reverse proxy -> Scala controller (CH-BL
///    variant) -> shared Kafka queue -> invoker; Kafka and CouchDB sit on
///    the critical path and "add 100s of ms";
///  - the controller adds <3 ms even under heavy load (the paper measured
///    this), so worker-side costs dominate;
///  - JVM garbage collection causes large, rare latency spikes ("large and
///    unpredictable latency spikes"), which grow with concurrency;
///  - shared-queue contention: Kafka latency degrades with in-flight load;
///  - keep-alive: fixed 10-minute TTL, LRU eviction when memory is full;
///  - no queue-based load regulation: CPU is overcommitted freely, and
///    invocations that cannot get memory are buffered and eventually
///    *dropped* (the Fig 6/7 behaviour);
///  - result writes go to CouchDB (up to half a second under load).
namespace ilu {

struct OpenWhiskConfig {
  double cores = 48.0;
  std::uint64_t memory_mb = 48 * 1024;
  /// Keep-alive policy. Vanilla OpenWhisk uses "TTL"; configuring "GD"
  /// turns this model into FaasCache (the paper's modified OpenWhisk).
  std::string keepalive_policy = "TTL";
  Duration keepalive_ttl = mins(10);

  LatencyModel nginx = LatencyModel::lognormal(msecs(0.8), 0.3);
  LatencyModel controller = LatencyModel::lognormal(msecs(2.0), 0.4);
  LatencyModel kafka = LatencyModel::lognormal(msecs(3.0), 0.6);
  LatencyModel couchdb_write = LatencyModel::lognormal(msecs(6.0), 0.8);
  /// Extra Kafka/CouchDB latency per unit of in-flight load (shared-queue
  /// contention; reaches "100s of ms" at high concurrency).
  double queue_contention_ms_per_inflight = 0.35;
  /// JVM GC pauses: probability per stage, sampled duration.
  double gc_pause_prob = 0.015;
  LatencyModel gc_pause = LatencyModel::lognormal(msecs(120), 0.9);
  /// GC pressure grows with concurrency: effective probability is
  /// gc_pause_prob * (1 + inflight / gc_load_scale).
  double gc_load_scale = 32.0;

  /// Docker is OpenWhisk's container layer.
  BackendLatencyProfile backend = BackendLatencyProfile::docker();
  /// Invocations wait at most this long for memory before being dropped.
  Duration buffer_timeout = secs(30);
  /// Max buffered (memory-waiting) invocations; beyond this, drop.
  std::size_t buffer_capacity = 256;
  /// OpenWhisk's admission limit on concurrently in-flight activations
  /// (controller-side per-invoker slots / Kafka queue depth). Arrivals
  /// beyond it are rejected immediately with "429 system overloaded" —
  /// the mechanism behind the paper's dropped-request counts: slow (cold)
  /// invocations hold slots longer, shrinking effective capacity.
  /// 0 disables the cap.
  std::size_t max_inflight = 0;

  std::uint64_t seed = 7;
};

class OpenWhiskModel {
 public:
  using InvokeCb = std::function<void(const InvokeResult&)>;

  OpenWhiskModel(Runtime& rt, OpenWhiskConfig cfg);
  ~OpenWhiskModel();

  FunctionId register_function(FunctionProfile profile);
  void invoke(FunctionId fn, InvokeCb cb);

  std::uint64_t completed() const { return completed_; }
  std::uint64_t warm_starts() const { return warm_count_; }
  std::uint64_t cold_starts() const { return cold_count_; }
  std::uint64_t dropped() const { return dropped_; }
  const std::vector<std::uint64_t>& warm_by_fn() const { return warm_by_fn_; }
  const std::vector<std::uint64_t>& cold_by_fn() const { return cold_by_fn_; }
  const std::vector<std::uint64_t>& dropped_by_fn() const {
    return dropped_by_fn_;
  }
  CpuModel& cpu() { return cpu_; }

  /// Stop background timers (pool sweeps) so simulations can drain.
  void shutdown();
  void start();

 private:
  struct Pending {
    FunctionId fn = 0;
    TimePoint submitted{};
    TimePoint buffered_at{};
    InvokeCb cb;
  };
  /// Slab handle to an in-flight activation (DESIGN.md §11). The buffer
  /// timeout keeps a handle past the activation's possible completion; the
  /// generation check makes that safe — a recycled slot never matches.
  struct PendingHandle {
    std::uint32_t index = 0;
    std::uint32_t gen = 0;
    bool valid() const { return gen != 0; }
    friend bool operator==(const PendingHandle&,
                           const PendingHandle&) = default;
  };
  using PendingStore = Slab<Pending, PendingHandle>;

  Duration stage_latency(const LatencyModel& m);
  void arrive_at_invoker(PendingHandle p);
  void try_start(PendingHandle p);
  void run_on(PendingHandle p, ContainerHandle c, bool cold);
  void complete(PendingHandle p, ContainerHandle c, bool cold,
                Duration actual);
  /// Complete `p` as dropped; consumes (erases) the pending.
  void drop(PendingHandle p);
  void pump_buffer();

  Runtime& rt_;
  OpenWhiskConfig cfg_;
  Rng rng_;
  std::vector<FunctionProfile> functions_;
  CpuModel cpu_;
  std::unique_ptr<KeepAlivePolicy> ka_policy_;
  ContainerPool pool_;
  SimContainerBackend backend_;

  std::size_t inflight_ = 0;
  PendingStore pending_;
  std::deque<PendingHandle> memory_buffer_;

  std::uint64_t completed_ = 0;
  std::uint64_t warm_count_ = 0;
  std::uint64_t cold_count_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::uint64_t> warm_by_fn_;
  std::vector<std::uint64_t> cold_by_fn_;
  std::vector<std::uint64_t> dropped_by_fn_;
};

}  // namespace ilu
