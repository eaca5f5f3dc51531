#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/worker.hpp"
#include "lb/chbl.hpp"
#include "runtime/latency.hpp"
#include "runtime/sharded_runtime.hpp"

/// A cluster of Ilúvatar workers behind a stateless load balancer (§4.1).
/// The balancer routes with CH-BL (RR and least-loaded are included for
/// comparison experiments) over its *local* view of worker load: the number
/// of invocations it has dispatched to each worker whose results have not
/// yet come back. The real control plane cannot read worker memory
/// synchronously either — it works from low-staleness signals — and the
/// local view is what lets the sharded simulation route without a
/// cross-thread read.
///
/// Two execution modes share all of the logic above:
///  * single event loop (`Cluster(Runtime&, ...)`): LB and workers all on
///    one runtime, RPC hops are plain timers;
///  * sharded (`Cluster(ShardedRuntime&, ...)`): the LB and the driver live
///    on shard 0, worker w lives on shard w % N, and every LB→worker /
///    worker→LB hop is a mailbox message. The RPC latency floor
///    (cfg.rpc.lower_bound(), strictly positive) is the conservative
///    lookahead. With a fixed seed the sharded run is event-for-event
///    identical to the single-shard run at any shard count: both RPC hop
///    samples are drawn on the LB at route time (so
///    the balancer RNG's draw order never depends on worker interleaving),
///    and messages are keyed by (deliver time, sender id, per-sender
///    sequence) — shard-count independent by construction.
namespace ilu {

enum class LbPolicy { ChBl, RoundRobin, LeastLoaded };

struct ClusterConfig {
  std::size_t num_workers = 4;
  WorkerConfig worker{};
  LbPolicy lb = LbPolicy::ChBl;
  ChblBalancer::Config chbl{};
  /// Network hop between load balancer and worker: a hard floor
  /// (serialization + NIC + switch minimum, also the sharded lookahead)
  /// plus lognormal jitter; median ≈ 250 µs as in the paper's LB studies.
  LatencyModel rpc =
      LatencyModel::shifted(usecs(200), LatencyModel::lognormal(usecs(50), 0.4));
  std::uint64_t seed = 21;
};

class Cluster {
 public:
  /// Single-event-loop cluster (the serial path).
  Cluster(Runtime& rt, ClusterConfig cfg);
  /// Sharded cluster: LB on shard 0, worker w on shard w % srt.shards().
  /// srt.lookahead() must not exceed cfg.rpc.lower_bound().
  Cluster(ShardedRuntime& srt, ClusterConfig cfg);

  /// Workers hold a reference to the function table.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void start();
  void shutdown();

  /// Appends the function to the cluster's function table, which every
  /// worker reads (functions can run anywhere), and hashes its CH-BL key.
  /// Workers create per-function state only on a function's first arrival,
  /// so registering costs O(1) per function whatever the worker count.
  /// Register before the run starts: sharded workers read the table from
  /// their shard threads without synchronization.
  FunctionId register_function(const FunctionProfile& profile);
  const std::vector<FunctionProfile>& functions() const { return functions_; }

  /// Route and invoke; cb fires with the worker's result, on the LB's
  /// event loop (shard 0 in sharded mode).
  void invoke(FunctionId fn, Worker::InvokeCb cb);

  std::size_t num_workers() const { return workers_.size(); }
  Worker& worker(std::size_t i) { return *workers_.at(i); }

  /// Invocations routed to each worker (locality / balance metrics).
  const std::vector<std::uint64_t>& routed() const { return routed_; }
  /// Invocations that were not routed to their CH-BL home worker.
  std::uint64_t forwarded() const { return forwarded_; }

 private:
  void build_workers();
  std::size_t route(FunctionId fn);
  /// Message tags: (per-sender sequence, sender) lexicographic, encoded so
  /// numeric order == lexicographic order over the fixed sender universe
  /// (LB = 0, worker w = w + 1). Identical at any shard count.
  std::uint64_t next_tag(std::size_t sender_id, std::uint64_t& seq) const;
  /// Deliver `fn` at absolute time `at` on worker w's event loop (or the
  /// LB's, for w == kLbDestination). A mailbox send when sharded, a plain
  /// timer otherwise.
  static constexpr std::size_t kLb = static_cast<std::size_t>(-1);
  void send_from_lb(std::size_t w, TimePoint at, Task fn);
  void send_to_lb(std::size_t w, TimePoint at, Task fn);

  Runtime& rt_;  ///< The LB's event loop (shard 0 when sharded).
  ShardedRuntime* srt_ = nullptr;
  ClusterConfig cfg_;
  Rng rng_;
  /// The function table, indexed by FunctionId; workers read it by
  /// reference.
  std::vector<FunctionProfile> functions_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// The shard hosting each worker (all 0 on the serial path).
  std::vector<std::size_t> worker_shard_;
  /// Ring hash of each function's CH-BL key, computed at registration.
  std::vector<std::uint64_t> fn_hashes_;
  ChblBalancer chbl_;
  std::size_t rr_next_ = 0;
  std::vector<std::uint64_t> routed_;
  std::uint64_t forwarded_ = 0;
  /// LB-local outstanding-invocation count per worker (the routing load
  /// signal). Lives here, not allocated per route call.
  std::vector<double> lb_view_;
  /// Running sum of lb_view_. The entries are integer counts held in
  /// doubles, so the sum is exact and equals a fresh index-order re-sum.
  double lb_view_sum_ = 0.0;
  /// Per-sender message sequence numbers. lb_seq_ is only touched on the
  /// LB's loop; worker_seq_[w] only on worker w's loop.
  std::uint64_t lb_seq_ = 0;
  std::vector<std::uint64_t> worker_seq_;
};

}  // namespace ilu
