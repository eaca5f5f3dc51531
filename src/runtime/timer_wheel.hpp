#pragma once
// ilu-lint: atomics-floor(relaxed) - node words/freelist publish via explicit release/acquire pairs; seq/live counters and intra-bucket links are relaxed by design (bucket spinlocks order them)
// ilu-lint: atomics-floor(seq_cst: staged_pushes_) - producer half of the Dekker sleep handshake: must totally order against the consumer's sleeping_ flag

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/task.hpp"
#include "util/dcheck.hpp"

/// Hierarchical timer wheel with sharded MPSC submission (DESIGN.md §14).
///
/// This is the live-side replacement for the mutex + priority_queue +
/// tombstone-set event loop that `RealRuntime` shipped with: a four-level
/// hashed wheel (256 slots per level, 1.024 ms ticks — spans ~0.26 s /
/// ~67 s / ~4.8 h / ~51 d per level, farther deadlines clamp into the top
/// level and re-cascade) whose consumer-side operations are all O(1):
/// link, unlink, cancel, and per-tick expiry. Producers never touch the
/// wheel structure itself — `stage()` allocates a node from a lock-free
/// pool, publishes it Live, and pushes the node *index* onto one of
/// `kSubmitShards` mutex-striped staging vectors (shard picked per
/// producer thread), so N load threads contend on N/8 tiny mutexes
/// instead of one global lock. The single consumer thread swap-drains
/// each shard per batch and links the nodes.
///
/// Identity and cancellation follow the `indexed_heap.hpp` idiom: a
/// TimerId packs (generation << 32 | node index), and each node carries
/// one atomic word `(generation << 2) | state` with states
/// Free/Live/Firing/Cancelled. Packing generation and state into a single
/// word is what makes cross-thread cancel exact without a tombstone set:
/// cancel CASes (gen|Live) -> (gen|Cancelled) and fails — returning
/// false — if the timer already fired (the free bumped the generation) or
/// was already cancelled. Cancelled nodes are reaped lazily when the
/// consumer next touches their slot (drain, cascade, or expiry), so
/// memory stays bounded by the in-flight window instead of growing with
/// cancel history. The 2^32 generation wrap shares `indexed_heap.hpp`'s
/// documented staleness bound: an id held across exactly 2^32 reuses of
/// one slot could alias; generations ≡ 0 (mod 2^32) are skipped so a
/// valid id never equals kInvalidTimer.
///
/// Node storage never moves: nodes live in 1024-node chunks reached
/// through a fixed directory of atomic chunk pointers, so producers can
/// allocate (Treiber free-stack pop, tagged against ABA, with a bump
/// cursor fallback that grows under a mutex) while the consumer walks
/// lists, without any reallocation ever invalidating a Node*.
///
/// Threading contract: `arm`, `advance`, `drain_staged`, and
/// `next_deadline_hint` are consumer-thread-only (audited by
/// ILU_ASSERT_OWNER in debug builds); `stage`, `cancel`, `live`, and
/// `has_staged` are any-thread. The wheel does not read any clock — the
/// caller supplies `now_us`, which keeps the structure deterministic and
/// unit-testable with synthetic time.
namespace ilu {

class TimerWheel {
 public:
  using TimerId = std::uint64_t;

  static constexpr TimerId kInvalidId = 0;
  /// log2 of the tick width in microseconds: 1.024 ms per tick.
  static constexpr unsigned kTickShiftUs = 10;
  static constexpr unsigned kLevelBits = 8;
  static constexpr unsigned kLevels = 4;
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;
  static constexpr std::size_t kSubmitShards = 8;

  TimerWheel() { heads_.fill(kNil); }

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  ~TimerWheel() {
    // Node destructors release any still-pending Task payloads (staged,
    // linked, or cancelled-but-unreaped nodes at shutdown).
    const std::uint64_t cap = capacity_.load(std::memory_order_acquire);
    for (std::uint64_t c = 0; c * kChunkSize < cap; ++c)
      delete[] directory_[c].load(std::memory_order_acquire);
  }

  /// Hand consumer-side ownership to the calling thread (debug audit).
  void bind_consumer() { owner_.bind(); }

  /// Consumer-thread schedule: allocate, publish Live, link directly into
  /// the wheel. No staging hop, no shard mutex.
  TimerId arm(std::uint64_t deadline_us, Task fn) {
    ILU_ASSERT_OWNER(owner_, "TimerWheel::arm");
    const std::uint32_t idx = alloc_node();
    Node& n = node(idx);
    const std::uint64_t gen = n.word.load(std::memory_order_relaxed) >> kStateBits;
    n.deadline_us = deadline_us;
    n.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    n.task = std::move(fn);
    live_count_.fetch_add(1, std::memory_order_relaxed);
    n.word.store((gen << kStateBits) | kStateLive, std::memory_order_release);
    link(idx, deadline_us);
    return make_id(gen, idx);
  }

  /// Any-thread schedule: allocate + publish Live, then hand the node
  /// index to the consumer through this producer's staging shard. The
  /// returned id is valid for cancel() immediately.
  TimerId stage(std::uint64_t deadline_us, Task fn) {
    const std::uint32_t idx = alloc_node();
    Node& n = node(idx);
    const std::uint64_t gen = n.word.load(std::memory_order_relaxed) >> kStateBits;
    n.deadline_us = deadline_us;
    n.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    n.prev = kNil;
    n.home.store(kNotLinked, std::memory_order_relaxed);
    n.task = std::move(fn);
    live_count_.fetch_add(1, std::memory_order_relaxed);
    n.word.store((gen << kStateBits) | kStateLive, std::memory_order_release);
    SubmitShard& s = shards_[submit_shard_hint() & (kSubmitShards - 1)];
    {
      std::lock_guard<std::mutex> lk(s.mu);
      // ilu-lint: allow(blocking-under-lock) - staged is swap-drained every tick, so capacity is retained and push_back amortizes to a store; the shard mutex is striped 8 ways exactly to absorb this
      s.staged.push_back(idx);
    }
    // seq_cst pairs with the consumer's seq_cst sleeping-flag handshake
    // (Dekker): either the consumer's pre-sleep check sees this push, or
    // this producer sees the consumer's sleeping flag and wakes it.
    staged_pushes_.fetch_add(1, std::memory_order_seq_cst);
    return make_id(gen, idx);
  }

  /// Any-thread cancel. Returns true iff the timer was Live (scheduled
  /// and not yet fired or cancelled) — cancel after fire returns false,
  /// always, because the fire path bumps the node generation before the
  /// callback even runs. `on_consumer_thread` lets the owner thread
  /// unlink + reap eagerly; other threads only flip the state word and
  /// leave reclamation to the consumer's next pass over the slot.
  bool cancel(TimerId id, bool on_consumer_thread = false) {
    if (id == kInvalidId) return false;
    const std::uint32_t idx = static_cast<std::uint32_t>(id & 0xffffffffu);
    const std::uint64_t gen32 = id >> 32;
    if (idx >= capacity_.load(std::memory_order_acquire)) return false;
    Node& n = node(idx);
    std::uint64_t w = n.word.load(std::memory_order_acquire);
    for (;;) {
      if ((w & kStateMask) != kStateLive ||
          ((w >> kStateBits) & 0xffffffffu) != gen32)
        return false;
      if (n.word.compare_exchange_weak(w, (w & ~kStateMask) | kStateCancelled,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire))
        break;
    }
    live_count_.fetch_sub(1, std::memory_order_release);
    if (on_consumer_thread) {
      // Only reap when the node is linked into the wheel. home ==
      // kNotLinked means it is sitting in a staging shard or in the
      // current fire batch; those paths observe Cancelled and reap.
      const std::uint32_t home = n.home.load(std::memory_order_relaxed);
      if (home != kNotLinked) {
        ILU_ASSERT_OWNER(owner_, "TimerWheel::cancel(eager)");
        unlink(n, home);
        reap(n, idx);
      }
    }
    return true;
  }

  /// Consumer: move every staged node into the wheel (or reap ones that
  /// were cancelled while still in the shard). Returns nodes drained.
  std::size_t drain_staged() {
    ILU_ASSERT_OWNER(owner_, "TimerWheel::drain_staged");
    std::size_t total = 0;
    for (SubmitShard& s : shards_) {
      drain_scratch_.clear();
      {
        std::lock_guard<std::mutex> lk(s.mu);
        s.staged.swap(drain_scratch_);
      }
      for (std::uint32_t idx : drain_scratch_) {
        Node& n = node(idx);
        const std::uint64_t w = n.word.load(std::memory_order_acquire);
        if ((w & kStateMask) == kStateCancelled)
          reap(n, idx);
        else
          link(idx, n.deadline_us);
      }
      total += drain_scratch_.size();
    }
    if (total != 0) staged_drained_.fetch_add(total, std::memory_order_release);
    return total;
  }

  /// Consumer: advance wheel time to `now_us`, cascading overflow levels
  /// at every 256^k tick boundary, and fire every due timer in
  /// (deadline, seq) order. A timer never fires before its deadline: fully
  /// elapsed ticks are flushed whole, and the still-open current tick only
  /// contributes nodes with deadline_us <= now_us. Returns callbacks run.
  std::size_t advance(std::uint64_t now_us) {
    ILU_ASSERT_OWNER(owner_, "TimerWheel::advance");
    batch_.clear();
    const std::uint64_t now_tick = now_us >> kTickShiftUs;
    while (current_tick_ < now_tick) {
      // Fast-forward across empty level-0 stretches (an idle loop waking
      // after seconds would otherwise walk every elapsed tick): jump to
      // the next cascade boundary or now_tick, whichever is closer.
      const std::array<std::uint64_t, 4>& l0 = bitmap_[0];
      if ((l0[0] | l0[1] | l0[2] | l0[3]) == 0) {
        const std::uint64_t boundary = (current_tick_ | kSlotMask) + 1;
        current_tick_ = std::min(boundary, now_tick);
        cascade_at(current_tick_);
        continue;
      }
      collect_slot(static_cast<std::uint32_t>(current_tick_ & kSlotMask),
                   ~std::uint64_t{0});
      ++current_tick_;
      cascade_at(current_tick_);
    }
    collect_slot(static_cast<std::uint32_t>(current_tick_ & kSlotMask), now_us);
    if (batch_.empty()) return 0;
    std::sort(batch_.begin(), batch_.end(), [](const Due& a, const Due& b) {
      return a.deadline_us != b.deadline_us ? a.deadline_us < b.deadline_us
                                            : a.seq < b.seq;
    });
    std::size_t fired = 0;
    for (const Due& d : batch_) fired += fire_one(d) ? 1u : 0u;
    return fired;
  }

  /// Consumer: lower bound on the earliest pending deadline (exact for
  /// current-tick timers, cascade-boundary-rounded for far ones). False
  /// when the wheel holds nothing to wake for.
  bool next_deadline_hint(std::uint64_t* out_us) const {
    ILU_ASSERT_OWNER(owner_, "TimerWheel::next_deadline_hint");
    std::uint64_t best = ~std::uint64_t{0};
    const std::uint32_t cur0 = static_cast<std::uint32_t>(current_tick_ & kSlotMask);
    for (std::uint32_t idx = heads_[cur0]; idx != kNil;) {
      const Node& n = node(idx);
      if ((n.word.load(std::memory_order_acquire) & kStateMask) == kStateLive)
        best = std::min(best, n.deadline_us);
      idx = n.next.load(std::memory_order_relaxed);
    }
    for (unsigned level = 0; level < kLevels; ++level) {
      const std::uint64_t base = current_tick_ >> (kLevelBits * level);
      const int d = first_set_distance(level, static_cast<std::uint32_t>(base & kSlotMask));
      if (d > 0) {
        const std::uint64_t cand_tick = (base + static_cast<std::uint64_t>(d))
                                        << (kLevelBits * level);
        best = std::min(best, cand_tick << kTickShiftUs);
      }
    }
    if (best == ~std::uint64_t{0}) return false;
    *out_us = best;
    return true;
  }

  /// Timers scheduled and not yet fired or cancelled (staged + linked +
  /// currently firing). Any thread.
  std::uint64_t live() const {
    return live_count_.load(std::memory_order_acquire);
  }

  /// True while any producer push has not been drained yet. Any thread.
  /// The seq_cst load is half of the sleep/wake Dekker handshake.
  bool has_staged() const {
    return staged_pushes_.load(std::memory_order_seq_cst) !=
           staged_drained_.load(std::memory_order_acquire);
  }

  /// Node slots ever materialized (chunk granularity) — the memory
  /// footprint bound the regression tests pin down.
  // ilu-lint: allow(test-only-api) - test hook over the capacity the chunk growth keeps
  std::uint64_t node_capacity() const {
    return capacity_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kNotLinked = 0xffffffffu;
  static constexpr std::uint32_t kSlotMask = kSlotsPerLevel - 1;
  static constexpr unsigned kStateBits = 2;
  static constexpr std::uint64_t kStateMask = 0x3;
  static constexpr std::uint64_t kStateFree = 0;
  static constexpr std::uint64_t kStateLive = 1;
  static constexpr std::uint64_t kStateFiring = 2;
  static constexpr std::uint64_t kStateCancelled = 3;
  static constexpr unsigned kChunkShift = 10;
  static constexpr std::size_t kChunkSize = 1u << kChunkShift;
  static constexpr std::size_t kMaxChunks = 4096;  // 4M concurrent timers

  struct Node {
    /// (generation << 2) | state. Generation starts at 1 and is bumped on
    /// every free (skipping multiples of 2^32), so a TimerId's 32-bit
    /// generation slice matches at most one lifecycle of this slot.
    std::atomic<std::uint64_t> word{(1ull << kStateBits) | kStateFree};
    std::uint64_t deadline_us = 0;
    std::uint64_t seq = 0;
    /// Intrusive slot list / free-stack link. Atomic (relaxed) because a
    /// losing free-stack pop may read it while the winner's consumer
    /// relinks the node.
    std::atomic<std::uint32_t> next{kNil};
    std::uint32_t prev = kNil;  // consumer-only
    /// Flat slot index (level * 256 + slot) while linked, kNotLinked while
    /// staged or batched. Written by producer (stage) and consumer (link),
    /// read by consumer-side eager cancel — atomic to keep that hint
    /// race-free.
    std::atomic<std::uint32_t> home{kNotLinked};
    Task task;
  };

  struct Due {
    std::uint64_t deadline_us;
    std::uint64_t seq;
    std::uint64_t gen;
    std::uint32_t idx;
  };

  struct alignas(64) SubmitShard {
    std::mutex mu;
    std::vector<std::uint32_t> staged;
  };

  static TimerId make_id(std::uint64_t gen, std::uint32_t idx) {
    return ((gen & 0xffffffffu) << 32) | idx;
  }

  /// Per-thread shard pick: round-robin at first use of each thread, so
  /// up to kSubmitShards producers never share a staging mutex.
  static std::uint32_t submit_shard_hint() {
    static std::atomic<std::uint32_t> counter{0};
    thread_local const std::uint32_t shard =
        counter.fetch_add(1, std::memory_order_relaxed);
    return shard;
  }

  Node& node(std::uint32_t idx) const {
    return directory_[idx >> kChunkShift].load(std::memory_order_acquire)
        [idx & (kChunkSize - 1)];
  }

  std::uint32_t alloc_node() {
    // Treiber pop, tagged against ABA on both push and pop.
    std::uint64_t head = free_head_.load(std::memory_order_acquire);
    while ((head & 0xffffffffu) != kNil) {
      const std::uint32_t idx = static_cast<std::uint32_t>(head & 0xffffffffu);
      const std::uint32_t nxt = node(idx).next.load(std::memory_order_relaxed);
      const std::uint64_t tag = (head >> 32) + 1;
      if (free_head_.compare_exchange_weak(head, (tag << 32) | nxt,
                                           std::memory_order_acquire,
                                           std::memory_order_acquire))
        return idx;
    }
    const std::uint64_t i = bump_.fetch_add(1, std::memory_order_relaxed);
    while (i >= capacity_.load(std::memory_order_acquire)) grow(i);
    return static_cast<std::uint32_t>(i);
  }

  void grow(std::uint64_t need_index) {
    std::lock_guard<std::mutex> lk(grow_mu_);
    std::uint64_t cap = capacity_.load(std::memory_order_relaxed);
    while (cap <= need_index) {
      const std::uint64_t chunk = cap >> kChunkShift;
      if (chunk >= kMaxChunks) {
        // ilu-lint: allow(blocking-under-lock) - terminal path: the process aborts right after, lock latency is irrelevant
        std::fprintf(stderr,
                     "TimerWheel: node pool exhausted (%zu chunks x %zu)\n",
                     kMaxChunks, kChunkSize);
        std::abort();
      }
      // ilu-lint: allow(blocking-under-lock) - grow_mu_ exists to serialize exactly this doubling; submitters never take it (they CAS the freelist) and hit it at most log2(peak/4096) times per run
      directory_[chunk].store(new Node[kChunkSize], std::memory_order_release);
      cap += kChunkSize;
      capacity_.store(cap, std::memory_order_release);
    }
  }

  void push_free(std::uint32_t idx) {
    Node& n = node(idx);
    std::uint64_t head = free_head_.load(std::memory_order_relaxed);
    for (;;) {
      n.next.store(static_cast<std::uint32_t>(head & 0xffffffffu),
                   std::memory_order_relaxed);
      const std::uint64_t tag = (head >> 32) + 1;
      if (free_head_.compare_exchange_weak(head, (tag << 32) | idx,
                                           std::memory_order_release,
                                           std::memory_order_relaxed))
        return;
    }
  }

  /// Retire a node: bump generation (invalidating every outstanding id
  /// for this lifecycle), mark Free, recycle. Task must already be moved
  /// out or reset.
  void free_node(Node& n, std::uint32_t idx) {
    const std::uint64_t gen = n.word.load(std::memory_order_relaxed) >> kStateBits;
    std::uint64_t ng = gen + 1;
    if ((ng & 0xffffffffu) == 0) ++ng;  // id gen slice must never be 0
    n.word.store((ng << kStateBits) | kStateFree, std::memory_order_release);
    push_free(idx);
  }

  void reap(Node& n, std::uint32_t idx) {
    n.task.reset();
    free_node(n, idx);
  }

  void bitmap_set(std::uint32_t flat) {
    bitmap_[flat >> kLevelBits][(flat & kSlotMask) >> 6] |=
        1ull << ((flat & kSlotMask) & 63);
  }

  void bitmap_clear(std::uint32_t flat) {
    bitmap_[flat >> kLevelBits][(flat & kSlotMask) >> 6] &=
        ~(1ull << ((flat & kSlotMask) & 63));
  }

  /// Smallest cyclic distance d in [1, 256] from `cur` to an occupied slot
  /// at `level` (d == 256 probes cur itself after a full wrap); -1 if the
  /// level is empty.
  int first_set_distance(unsigned level, std::uint32_t cur) const {
    const std::array<std::uint64_t, 4>& bits = bitmap_[level];
    const std::uint32_t start = (cur + 1) & kSlotMask;
    std::uint32_t scanned = 0;
    while (scanned < kSlotsPerLevel) {
      const std::uint32_t pos = (start + scanned) & kSlotMask;
      const std::uint32_t word_i = pos >> 6;
      const std::uint32_t bit_i = pos & 63;
      const std::uint32_t avail = 64 - bit_i;
      const std::uint32_t take =
          std::min(avail, kSlotsPerLevel - scanned);
      std::uint64_t w = bits[word_i] >> bit_i;
      if (take < 64) w &= (1ull << take) - 1;
      if (w != 0)
        return static_cast<int>(scanned + static_cast<std::uint32_t>(
                                              std::countr_zero(w)) + 1);
      scanned += take;
    }
    return -1;
  }

  /// Link a Live node at the level matching its distance from now. Late
  /// deadlines clamp to the current tick; deadlines beyond the top
  /// level's horizon clamp to its farthest slot and re-cascade later.
  void link(std::uint32_t idx, std::uint64_t deadline_us) {
    Node& n = node(idx);
    const std::uint64_t tick = deadline_us >> kTickShiftUs;
    const std::uint64_t delta = tick > current_tick_ ? tick - current_tick_ : 0;
    unsigned level = 0;
    while (level < kLevels - 1 &&
           delta >= (std::uint64_t{1} << (kLevelBits * (level + 1))))
      ++level;
    std::uint64_t place = current_tick_ + delta;
    const std::uint64_t horizon = std::uint64_t{1} << (kLevelBits * kLevels);
    if (delta >= horizon) place = current_tick_ + horizon - 1;
    const std::uint32_t slot =
        static_cast<std::uint32_t>((place >> (kLevelBits * level)) & kSlotMask);
    const std::uint32_t flat = level * kSlotsPerLevel + slot;
    const std::uint32_t old = heads_[flat];
    n.next.store(old, std::memory_order_relaxed);
    n.prev = kNil;
    if (old != kNil) node(old).prev = idx;
    heads_[flat] = idx;
    n.home.store(flat, std::memory_order_relaxed);
    bitmap_set(flat);
  }

  void unlink(Node& n, std::uint32_t flat) {
    const std::uint32_t p = n.prev;
    const std::uint32_t x = n.next.load(std::memory_order_relaxed);
    if (p == kNil)
      heads_[flat] = x;
    else
      node(p).next.store(x, std::memory_order_relaxed);
    if (x != kNil) node(x).prev = p;
    if (heads_[flat] == kNil) bitmap_clear(flat);
  }

  /// Collect due (deadline <= cutoff) Live nodes from a level-0 slot into
  /// batch_, reaping cancelled ones in passing.
  void collect_slot(std::uint32_t slot0, std::uint64_t due_cutoff_us) {
    const std::uint32_t flat = slot0;  // level 0
    std::uint32_t idx = heads_[flat];
    while (idx != kNil) {
      Node& n = node(idx);
      const std::uint32_t nxt = n.next.load(std::memory_order_relaxed);
      const std::uint64_t w = n.word.load(std::memory_order_acquire);
      if ((w & kStateMask) == kStateCancelled) {
        unlink(n, flat);
        reap(n, idx);
      } else if (n.deadline_us <= due_cutoff_us) {
        unlink(n, flat);
        n.home.store(kNotLinked, std::memory_order_relaxed);
        batch_.push_back(Due{n.deadline_us, n.seq, w >> kStateBits, idx});
      }
      idx = nxt;
    }
  }

  /// At each 256^k boundary, pull the arriving higher-level slots down.
  /// Highest rolling level first, so its spill lands in lower-level slots
  /// strictly after the ones about to cascade themselves.
  void cascade_at(std::uint64_t tick) {
    if ((tick & kSlotMask) != 0) return;
    unsigned top = 1;
    if ((tick & 0xffffu) == 0) top = 2;
    if ((tick & 0xffffffu) == 0) top = 3;
    for (unsigned level = top; level >= 1; --level) {
      const std::uint32_t slot = static_cast<std::uint32_t>(
          (tick >> (kLevelBits * level)) & kSlotMask);
      const std::uint32_t flat = level * kSlotsPerLevel + slot;
      std::uint32_t idx = heads_[flat];
      heads_[flat] = kNil;
      bitmap_clear(flat);
      while (idx != kNil) {
        Node& n = node(idx);
        const std::uint32_t nxt = n.next.load(std::memory_order_relaxed);
        const std::uint64_t w = n.word.load(std::memory_order_acquire);
        if ((w & kStateMask) == kStateCancelled)
          reap(n, idx);
        else
          link(idx, n.deadline_us);
        idx = nxt;
      }
    }
  }

  /// Fire one collected node. The Live -> Firing CAS happens here, at
  /// fire time rather than collect time, so a callback earlier in the
  /// same batch can still cancel a later same-tick timer and be told the
  /// truth. The node is freed (generation bumped) *before* the callback
  /// runs: cancel-after-fire is false even from inside the callback, and
  /// a schedule() from the callback can reuse the hot slot.
  bool fire_one(const Due& d) {
    Node& n = node(d.idx);
    std::uint64_t expected = (d.gen << kStateBits) | kStateLive;
    if (!n.word.compare_exchange_strong(expected,
                                        (d.gen << kStateBits) | kStateFiring,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      // Lost to a cross-thread cancel after collection: the canceller
      // could not reap (home was already kNotLinked), so we do.
      if ((expected >> kStateBits) == d.gen &&
          (expected & kStateMask) == kStateCancelled)
        reap(n, d.idx);
      return false;
    }
    Task t = std::move(n.task);
    free_node(n, d.idx);
    t();
    live_count_.fetch_sub(1, std::memory_order_release);
    return true;
  }

  // --- node pool ---
  std::unique_ptr<std::atomic<Node*>[]> directory_{
      new std::atomic<Node*>[kMaxChunks] {}};
  std::atomic<std::uint64_t> capacity_{0};
  std::atomic<std::uint64_t> bump_{0};
  std::atomic<std::uint64_t> free_head_{kNil};  // (aba_tag << 32) | index
  std::mutex grow_mu_;

  // --- wheel (consumer-owned) ---
  std::uint64_t current_tick_ = 0;
  std::array<std::uint32_t, kLevels * kSlotsPerLevel> heads_;
  std::array<std::array<std::uint64_t, 4>, kLevels> bitmap_{};
  std::vector<Due> batch_;
  std::vector<std::uint32_t> drain_scratch_;

  // --- submission ---
  std::array<SubmitShard, kSubmitShards> shards_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> staged_pushes_{0};
  std::atomic<std::uint64_t> staged_drained_{0};
  std::atomic<std::uint64_t> live_count_{0};

  [[no_unique_address]] OwnerRecord owner_;
};

}  // namespace ilu
