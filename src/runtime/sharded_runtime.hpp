#pragma once
// ilu-lint: atomics-floor(relaxed) - horizon_ is published between barriers (the barrier supplies the ordering)

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/sim_runtime.hpp"

/// Time-parallel discrete-event simulation: N SimRuntime shards, each owned
/// by one thread, synchronized by conservative bounded-lag windows
/// (Chandy–Misra; DESIGN.md §9).
///
/// Every cross-shard interaction must go through send(), which models a
/// link whose latency is at least `lookahead` (> 0). Each window starts the
/// same way: every shard drains its inbox (messages sorted by (deliver
/// time, tag)) into its event heap, publishes its next-event horizon, and
/// crosses a barrier; all shards then agree on T_min, the globally earliest
/// pending deadline. The lookahead bound makes the window safe outright: no
/// event executed anywhere can cause a new event before T_min + lookahead,
/// so every shard runs run_before(T_min + lookahead) and can never receive
/// a message "from the past".
///
/// Determinism: the delivery order of cross-shard messages is a pure
/// function of (deliver time, tag), where callers derive the tag from a
/// logical sender id and a per-sender sequence number — NOT from shard ids
/// or wall-clock interleaving. Tagged events also order *before* any
/// plain-scheduled local event at the same deadline (see
/// SimRuntime::schedule_tagged). Windows only partition execution into safe
/// prefixes of that one event order, so a run's observable behaviour is
/// identical at any shard count, including 1 shard: run_until() then
/// forwards straight to the underlying SimRuntime (no threads, no barriers,
/// no outboxes) and send() degenerates to a schedule_tagged call with the
/// very same (deliver time, tag) key.
namespace ilu {

class ShardedRuntime {
 public:
  /// `lookahead` must be strictly positive: it is the minimum cross-shard
  /// message latency callers promise to respect in send().
  ShardedRuntime(std::size_t shards, Duration lookahead);

  std::size_t shards() const { return shards_.size(); }
  Duration lookahead() const { return lookahead_; }
  SimRuntime& shard(std::size_t i) { return *shards_[i]; }
  const SimRuntime& shard(std::size_t i) const { return *shards_[i]; }

  /// Virtual time of shard 0 (all shards agree after run_until returns).
  TimePoint now() const { return shards_[0]->now(); }

  /// Deliver `fn` on shard `dst` at absolute time `at`. Must be called
  /// either from the owning thread of shard `src` during a window, or from
  /// outside run_until/run entirely. Requires tag < SimRuntime::kTagBand
  /// and at >= src's now + lookahead (the link latency promise — violations
  /// abort under ILU_DEBUG_CHECKS).
  void send(std::size_t src, std::size_t dst, TimePoint at, std::uint64_t tag,
            Task fn);

  /// Run all shards up to and including events at time t, then advance
  /// every shard's clock to exactly t. Blocking; spawns one thread per
  /// shard (none when shards() == 1).
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now() + d); }

  /// Run until globally quiescent (all heaps empty, all mailboxes drained).
  /// Only terminates for workloads without self-rescheduling timers.
  void run();

  /// True when no shard has pending events.
  bool idle() const;

  /// Synchronization windows executed so far (0 on the single-shard path).
  std::uint64_t windows() const { return windows_; }
  /// Cross-shard messages delivered through mailboxes so far.
  std::uint64_t messages() const;

  /// Events processed by all shards, as each shard stored it when its loop
  /// ended. Read it between runs, not during one.
  std::uint64_t total_events() const;

 private:
  struct Msg {
    TimePoint at{};
    std::uint64_t tag = 0;
    Task fn;
  };

  /// The window loop shared by run_until (bounded) and run (unbounded).
  /// `limit` is the inclusive time bound; TimePoint::max() means run to
  /// quiescence.
  void run_windows(TimePoint limit);
  void merge_inbox(std::size_t dst);

  Duration lookahead_;
  std::vector<std::unique_ptr<SimRuntime>> shards_;
  /// outbox_[src * S + dst]: written only by src's thread during a window,
  /// drained only by dst's thread at the barrier.
  std::vector<std::vector<Msg>> outbox_;
  /// Per-shard merge scratch (sorting buffer), owned by the dst thread.
  std::vector<std::vector<Msg>> scratch_;
  /// Published next-event horizon per shard (µs; INT64_MAX when idle).
  /// Plain values would race; the window barriers order the accesses, and
  /// atomics make the publication explicit for the sanitizer.
  std::vector<std::atomic<std::int64_t>> horizon_;
  /// Per-shard processed-event counts, each stored by its shard's thread
  /// when its loop ends (the thread joins publish them).
  std::vector<std::uint64_t> events_;
  /// Messages delivered per destination shard (owner-thread writes only).
  std::vector<std::uint64_t> delivered_;
  std::uint64_t windows_ = 0;
};

}  // namespace ilu
