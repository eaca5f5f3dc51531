#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/hash.hpp"

/// Consistent hashing with bounded loads (CH-BL), the locality-aware,
/// stateless load-balancing scheme the paper adopts (§4.1): a function
/// hashes to a home worker so repeat invocations hit its warm containers,
/// but when that worker's load exceeds `bound x cluster average`, the
/// invocation is forwarded clockwise to the next worker under the bound.
namespace ilu {

class ConsistentHashRing {
 public:
  /// One virtual node: a point on the ring owned by a worker.
  struct Point {
    std::uint64_t at;
    std::size_t worker;
  };

  explicit ConsistentHashRing(std::size_t vnodes_per_worker = 64)
      : vnodes_(vnodes_per_worker) {}

  void add_worker(std::size_t worker_index);
  std::size_t num_workers() const { return workers_; }

  /// Where `key` lands on the ring. FNV-1a alone clusters similar short
  /// names (fn_1/fn_2/... differ only in the low bits); the splitmix64
  /// finalizer spreads them.
  static std::uint64_t hash_key(std::string_view key) {
    return splitmix64(fnv1a64(key));
  }

  /// The ring, ascending by point, one entry per distinct point (the first
  /// worker to claim a point keeps it). A key's candidate workers are the
  /// distinct workers met walking clockwise from the first point at or
  /// after hash_key(key), wrapping once; ChblBalancer::pick walks it.
  const std::vector<Point>& points() const { return ring_; }

 private:
  std::size_t vnodes_;
  std::size_t workers_ = 0;
  std::vector<Point> ring_;
};

/// The bounded-loads walk. Loads are supplied by the caller (queue length +
/// running count per the paper's "true load" signal).
class ChblBalancer {
 public:
  struct Config {
    /// Forward when load > bound_factor * max(1, average load).
    double bound_factor = 2.0;
    std::size_t vnodes_per_worker = 64;
  };

  explicit ChblBalancer(std::size_t num_workers);
  ChblBalancer(std::size_t num_workers, Config cfg);

  /// Pick a worker for the key hashed to `key_hash`
  /// (ConsistentHashRing::hash_key) given per-worker loads and their sum.
  /// Returns the first candidate within the bound, or the least-loaded
  /// worker if all exceed it. The walk stops at that first candidate, so a
  /// pick reads only the ring points up to it, not the whole ring.
  std::size_t pick(std::uint64_t key_hash, const std::vector<double>& loads,
                   double load_sum);

  /// Convenience: hashes `fn_key` and sums `loads` in index order.
  std::size_t pick(std::string_view fn_key, const std::vector<double>& loads);

  /// How many forwarding hops the last pick made (for locality metrics).
  std::size_t last_hops() const { return last_hops_; }

 private:
  Config cfg_;
  ConsistentHashRing ring_;
  std::size_t last_hops_ = 0;
  /// Visited set of the current walk: worker w was seen iff
  /// seen_[w] == epoch_. Bumping the epoch clears it in O(1).
  std::vector<std::uint32_t> seen_;
  std::uint32_t epoch_ = 0;
};

}  // namespace ilu
