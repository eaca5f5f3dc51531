#pragma once

#include <functional>
#include <string>
#include <vector>

#include "containers/container.hpp"
#include "keepalive/policy.hpp"
#include "runtime/indexed_heap.hpp"
#include "runtime/runtime.hpp"

/// The worker's keep-alive container pool (§4.3.1): tracks every in-use and
/// available container per function, accounts server memory, and performs
/// eviction *asynchronously* in a background sweep (§4.3.2) that maintains a
/// free-memory buffer for invocation bursts — instead of picking victims on
/// the invoke critical path. The sweep timer is armed only while a sweep can
/// act (an idle container exists, and the policy expires containers or the
/// buffer is short), always on the grid start() + k * sweep_interval
/// (DESIGN.md §25).
///
/// Storage model (DESIGN.md §11): all container records live in a
/// `ContainerStore` slab and are addressed by `ContainerHandle` — callers
/// never hold `Container*` across calls. The idle set is kept in two
/// allocation-free index structures over the slab:
///
///  * per-function intrusive LIFO lists (prev/next handles stored in the
///    record itself) for MRU `acquire`;
///  * an indexed min-heap keyed `(eviction_rank, idle sequence)` for victim
///    selection. The sequence is a per-pool counter stamped each time a
///    container goes idle, so among equal ranks the container idle longest
///    goes first, and the victim order is total and run-to-run stable by
///    construction.
///
/// After warm-up, acquire/return/evict perform zero heap allocations.
namespace ilu {

class ContainerPool {
 public:
  struct Config {
    std::uint64_t capacity_mb = 32 * 1024;
    /// The background sweep evicts idle containers until at least this much
    /// memory is free (0 disables the buffer).
    std::uint64_t free_buffer_mb = 2048;
    /// Spacing of the grid background sweeps run on; zero disables
    /// background eviction entirely (the synchronous-eviction ablation).
    Duration sweep_interval = msecs(500);
  };

  /// Eviction notification: the record is alive only for the duration of
  /// the call (its handle is already invalid) — copy out whatever teardown
  /// needs. The callback must not synchronously reenter the pool; both the
  /// worker and the OpenWhisk baseline defer real teardown to the runtime.
  using EvictFn = std::function<void(const Container&)>;
  /// Prefetching policies (HIST) can ask for a container to be pre-warmed
  /// at an absolute time after an expiry removed the last warm one; the
  /// worker schedules the actual prewarm.
  using PrewarmRequestFn = std::function<void(FunctionId, TimePoint)>;

  ContainerPool(Runtime& rt, KeepAlivePolicy& policy, Config cfg,
                EvictFn on_evict);

  void set_prewarm_requester(PrewarmRequestFn fn) {
    on_prewarm_request_ = std::move(fn);
  }

  ~ContainerPool();

  ContainerPool(const ContainerPool&) = delete;
  ContainerPool& operator=(const ContainerPool&) = delete;

  /// Begin/end background sweeping. start() anchors the sweep grid at now.
  void start();
  void stop();

  /// Take the most-recently-used idle container of `fn` for an invocation
  /// (Idle -> Running). Returns a null handle when none is available.
  ContainerHandle acquire(FunctionId fn, TimePoint now);

  /// Reserve memory and register a brand-new container (cold start or
  /// prewarm). Synchronously evicts idle containers if the buffer could not
  /// keep up; when `sync_evictions` is non-null it receives the number of
  /// victims removed on this call (the caller pays their teardown on the
  /// critical path — exactly the jitter §4.3.2's background eviction
  /// avoids). Returns a null handle when memory cannot be found (busy
  /// containers pin it). The returned container is in Provisioning state.
  ContainerHandle add_container(FunctionId fn, const FunctionProfile& profile,
                                TimePoint now,
                                std::size_t* sync_evictions = nullptr);

  /// Provisioning -> Running: a freshly created container takes the cold
  /// invocation it was created for.
  void launch(ContainerHandle h, TimePoint now);

  /// Running -> Idle; the container becomes available for reuse.
  void return_container(ContainerHandle h, TimePoint now);

  /// Park a freshly created prewarm container (Provisioning -> Idle).
  void park_prewarmed(ContainerHandle h, TimePoint now);

  /// Remove a container in any state (creation failure, shutdown).
  void remove(ContainerHandle h);

  /// Dereference a handle. References are invalidated by `add_container`
  /// (slab growth) and by anything that can evict the record; re-fetch
  /// rather than caching across pool calls.
  Container& get(ContainerHandle h) { return store_.get(h); }
  const Container& get(ContainerHandle h) const { return store_.get(h); }

  bool has_idle(FunctionId fn) const {
    return fn < idle_head_.size() && idle_head_[fn].valid();
  }
  // ilu-lint: allow(test-only-api) - test hook over the eviction-rank index's size
  std::size_t idle_count() const { return rank_.size(); }
  std::size_t total_count() const { return store_.size(); }
  std::uint64_t used_mb() const { return used_mb_; }
  std::uint64_t capacity_mb() const { return capacity_mb_; }
  /// Saturates at 0: set_capacity_mb may drop capacity below what busy
  /// containers pin.
  std::uint64_t free_mb() const {
    return used_mb_ < capacity_mb_ ? capacity_mb_ - used_mb_ : 0;
  }
  void set_capacity_mb(std::uint64_t mb);

  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t expirations() const { return expirations_; }

  /// The backing slab; exposed so tests can assert allocation behaviour and
  /// iterate records in canonical order.
  const ContainerStore& store() const { return store_; }

  /// One background sweep: expire per policy (only when the policy is an
  /// ExpiringPolicy), then restore the free buffer.
  /// An expiry asks for a prewarm only when the container served an
  /// invocation: one that expires still parked from a prewarm was never
  /// needed, and re-prewarming it would loop for as long as the function
  /// stays quiet. Public so tests and the sync-eviction ablation can drive
  /// it directly.
  void sweep(TimePoint now);

  /// O(n) structural invariant check for tests: memory accounting, idle
  /// list/rank index consistency, intrusive link integrity. Returns false
  /// and fills `why` (when non-null) on the first violation.
  // ilu-lint: allow(test-only-api) - invariant check over state the pool keeps anyway
  bool validate(std::string* why = nullptr) const;

 private:
  /// Rank-heap key: policy eviction rank, then the order containers went
  /// idle (LRU among equal ranks). Strictly totally ordered, so victim
  /// order is deterministic by construction.
  struct RankKey {
    double rank;
    std::uint64_t idle_seq;
    bool operator<(const RankKey& o) const {
      return rank < o.rank || (rank == o.rank && idle_seq < o.idle_seq);
    }
  };
  using RankHeap = IndexedHeap<RankKey, ContainerHandle>;

  void insert_idle(ContainerHandle h, Container& c);
  void remove_idle(ContainerHandle h, Container& c);
  void evict_one(ContainerHandle h, bool expired);
  bool make_room(std::uint32_t mem_mb);
  /// True while a sweep can act: an idle container exists, and the policy
  /// expires containers or free memory is below the buffer.
  bool needs_sweep() const;
  /// Arm the sweep timer at the first grid point strictly after now, if the
  /// pool is running, no sweep is pending and needs_sweep() holds. Every
  /// state change that can make needs_sweep() true must call it, or work
  /// waits for the next arming.
  void arm_sweep();

  Runtime& rt_;
  KeepAlivePolicy& policy_;
  /// policy_ as an ExpiringPolicy, or null when its containers never
  /// expire; resolved once so sweeps skip the expiry scan without asking.
  const ExpiringPolicy* expiring_;
  Config cfg_;
  EvictFn on_evict_;
  PrewarmRequestFn on_prewarm_request_;

  std::uint64_t capacity_mb_;
  std::uint64_t used_mb_ = 0;
  ContainerId next_id_ = 1;
  /// Stamped into the rank key each time a container goes idle.
  std::uint64_t next_idle_seq_ = 0;

  ContainerStore store_;
  /// Head of the per-function intrusive idle list (MRU first), indexed by
  /// FunctionId; grows to the largest id seen, then never reallocates.
  std::vector<ContainerHandle> idle_head_;
  RankHeap rank_;
  /// Scratch for sweep's expiry pass; member so steady-state sweeps reuse
  /// its capacity instead of allocating.
  std::vector<ContainerHandle> expired_scratch_;

  bool running_ = false;
  /// Anchor of the sweep grid: the time of the last start().
  TimePoint started_at_{0};
  Runtime::TimerId sweep_timer_ = Runtime::kInvalidTimer;
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
};

}  // namespace ilu
