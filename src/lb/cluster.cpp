#include "lb/cluster.hpp"

#include <cassert>
#include <limits>

#include "obs/flight.hpp"

namespace ilu {

Cluster::Cluster(Runtime& rt, ClusterConfig cfg)
    : rt_(rt),
      cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      chbl_(cfg_.num_workers, cfg_.chbl),
      routed_(cfg_.num_workers, 0),
      lb_view_(cfg_.num_workers, 0.0),
      worker_seq_(cfg_.num_workers, 0) {
  build_workers();
}

Cluster::Cluster(ShardedRuntime& srt, ClusterConfig cfg)
    : rt_(srt.shard(0)),
      srt_(&srt),
      cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      chbl_(cfg_.num_workers, cfg_.chbl),
      routed_(cfg_.num_workers, 0),
      lb_view_(cfg_.num_workers, 0.0),
      worker_seq_(cfg_.num_workers, 0) {
  assert(srt.lookahead() <= cfg_.rpc.lower_bound() &&
         "cross-shard lookahead must not exceed the RPC latency floor");
  build_workers();
}

void Cluster::build_workers() {
  const std::size_t num_shards = srt_ ? srt_->shards() : 1;
  for (std::size_t i = 0; i < cfg_.num_workers; ++i) {
    WorkerConfig wc = cfg_.worker;
    wc.name = "worker" + std::to_string(i);
    wc.seed = cfg_.worker.seed + i * 7919;
    // Round-robin striping; the shard map only re-partitions execution
    // across threads, never the simulation's results (DESIGN §16).
    const std::size_t shard = i % num_shards;
    Runtime& wrt = srt_ ? static_cast<Runtime&>(srt_->shard(shard)) : rt_;
    worker_shard_.push_back(shard);
    workers_.push_back(std::make_unique<Worker>(wrt, wc, functions_));
  }
}

void Cluster::start() {
  for (auto& w : workers_) w->start();
}

void Cluster::shutdown() {
  for (auto& w : workers_) w->shutdown();
}

FunctionId Cluster::register_function(const FunctionProfile& profile) {
  auto id = static_cast<FunctionId>(functions_.size());
  fn_hashes_.push_back(ConsistentHashRing::hash_key(profile.name + "#" +
                                                    std::to_string(id)));
  functions_.push_back(profile);
  return id;
}

std::size_t Cluster::route(FunctionId fn) {
  switch (cfg_.lb) {
    case LbPolicy::RoundRobin: {
      std::size_t w = rr_next_;
      rr_next_ = (rr_next_ + 1) % workers_.size();
      return w;
    }
    case LbPolicy::LeastLoaded: {
      std::size_t best = 0;
      double best_load = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        if (lb_view_[i] < best_load) {
          best_load = lb_view_[i];
          best = i;
        }
      }
      return best;
    }
    case LbPolicy::ChBl: {
      std::size_t w = chbl_.pick(fn_hashes_.at(fn), lb_view_, lb_view_sum_);
      if (chbl_.last_hops() > 0) ++forwarded_;
      return w;
    }
  }
  return 0;
}

std::uint64_t Cluster::next_tag(std::size_t sender_id,
                                std::uint64_t& seq) const {
  // (sequence, sender) packed so numeric order matches lexicographic order.
  return seq++ * (workers_.size() + 1) + sender_id;
}

void Cluster::send_from_lb(std::size_t w, TimePoint at, Task fn) {
  const std::uint64_t tag = next_tag(0, lb_seq_);
  if (srt_) {
    srt_->send(0, worker_shard_[w], at, tag, std::move(fn));
  } else {
    rt_.schedule(at - rt_.now(), std::move(fn));
  }
}

void Cluster::send_to_lb(std::size_t w, TimePoint at, Task fn) {
  const std::uint64_t tag = next_tag(w + 1, worker_seq_[w]);
  if (srt_) {
    srt_->send(worker_shard_[w], 0, at, tag, std::move(fn));
  } else {
    rt_.schedule(at - rt_.now(), std::move(fn));
  }
}

void Cluster::invoke(FunctionId fn, Worker::InvokeCb cb) {
  std::size_t w = route(fn);
  ++routed_[w];
  flight::record(rt_.now(), flight::Ev::kLbRoute,
                 static_cast<std::uint32_t>(w));
  lb_view_[w] += 1.0;
  lb_view_sum_ += 1.0;
  // Model the LB <-> worker RPC hop both ways. Both samples are drawn here,
  // at route time, so the balancer RNG's draw order is a pure function of
  // the invocation sequence — never of completion interleaving across
  // workers (which would differ run to run under sharding).
  Duration out_hop = cfg_.rpc.sample(rng_);
  Duration back_hop = cfg_.rpc.sample(rng_);
  send_from_lb(
      w, rt_.now() + out_hop,
      Task([this, w, fn, back_hop, cb = std::move(cb)]() mutable {
        workers_[w]->invoke(
            fn, [this, w, back_hop, cb = std::move(cb)](const InvokeResult& r) {
              // Runs on worker w's event loop; hop back to the LB.
              TimePoint at = workers_[w]->runtime().now() + back_hop;
              send_to_lb(w, at, Task([this, w, r, cb]() {
                           lb_view_[w] -= 1.0;
                           lb_view_sum_ -= 1.0;
                           cb(r);
                         }));
            });
      }));
}

}  // namespace ilu
