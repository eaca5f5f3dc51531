#pragma once

#include <cstdint>
#include <functional>

#include "runtime/latency.hpp"
#include "runtime/runtime.hpp"

/// Network-namespace pool (§4.3.1 "Network Namespace Caching").
///
/// Creating a netns + veth pair costs ~100 ms and is serialized by a global
/// kernel lock shared across all namespaces (the SOCK observation the paper
/// cites). The pool pre-creates namespaces in the background so container
/// cold starts take one off the shelf for free; only when the pool is empty
/// does a cold start pay the serialized creation cost on the critical path.
namespace ilu {

class NetnsPool {
 public:
  struct Config {
    std::size_t target_size = 32;
    /// Refill resumes when available drops below this.
    std::size_t low_watermark = 8;
    LatencyModel create_latency = LatencyModel::lognormal(msecs(100), 0.20);
    /// Pool disabled: every acquire pays the creation cost (OpenWhisk-style
    /// behaviour; also the ablation baseline).
    bool enabled = true;
  };

  /// cb(netns_id, penalty): penalty is the critical-path delay the caller
  /// must absorb before the namespace is usable (0 when served from pool).
  using AcquireCb = std::function<void(std::uint64_t, Duration)>;

  NetnsPool(Runtime& rt, Rng rng, Config cfg);

  /// Get a namespace for a new container. Never fails; may be slow.
  void acquire(AcquireCb cb);

  /// Namespace destroyed with its container (not returned to the pool; the
  /// background refill replaces capacity).
  void release(std::uint64_t netns_id);

  // ilu-lint: allow(test-only-api) - test hook over the shelf count acquire() keeps
  std::size_t available() const { return available_; }

 private:
  /// Serialize a creation through the modeled global lock; returns the
  /// completion time of this creation.
  TimePoint serialized_create();
  void refill();

  Runtime& rt_;
  Rng rng_;
  Config cfg_;
  std::size_t available_ = 0;
  std::uint64_t next_id_ = 1;
  /// Global-lock busy-until horizon: creations queue behind it.
  TimePoint lock_free_at_{};
  bool refill_scheduled_ = false;
};

}  // namespace ilu
