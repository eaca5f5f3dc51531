#include "keepalive/pool.hpp"

#include <cassert>

#include "obs/flight.hpp"

namespace ilu {

ContainerPool::ContainerPool(Runtime& rt, KeepAlivePolicy& policy, Config cfg,
                             EvictFn on_evict)
    : rt_(rt),
      policy_(policy),
      expiring_(dynamic_cast<const ExpiringPolicy*>(&policy)),
      cfg_(cfg),
      on_evict_(std::move(on_evict)),
      capacity_mb_(cfg.capacity_mb) {}

ContainerPool::~ContainerPool() { stop(); }

void ContainerPool::start() {
  if (running_ || cfg_.sweep_interval <= Duration::zero()) return;
  running_ = true;
  started_at_ = rt_.now();
  arm_sweep();
}

void ContainerPool::stop() {
  running_ = false;
  if (sweep_timer_ != Runtime::kInvalidTimer) {
    rt_.cancel(sweep_timer_);
    sweep_timer_ = Runtime::kInvalidTimer;
  }
}

bool ContainerPool::needs_sweep() const {
  return !rank_.empty() &&
         (expiring_ != nullptr || free_mb() < cfg_.free_buffer_mb);
}

void ContainerPool::arm_sweep() {
  if (!running_ || sweep_timer_ != Runtime::kInvalidTimer || !needs_sweep()) {
    return;
  }
  // Sweeps run only on the grid started_at_ + k * sweep_interval, so a
  // sweep armed late acts at the instant a timer re-armed since start()
  // would have (DESIGN.md §25).
  const TimePoint now = rt_.now();
  const Duration interval = cfg_.sweep_interval;
  const TimePoint at =
      started_at_ + ((now - started_at_) / interval + 1) * interval;
  sweep_timer_ = rt_.schedule(at - now, [this] {
    sweep_timer_ = Runtime::kInvalidTimer;
    if (!running_) return;
    sweep(rt_.now());
    arm_sweep();
  });
}

void ContainerPool::insert_idle(ContainerHandle h, Container& c) {
  assert(c.state == ContainerState::Idle);
  if (c.fn >= idle_head_.size()) idle_head_.resize(c.fn + 1);
  ContainerHandle head = idle_head_[c.fn];
  c.idle_prev = ContainerHandle{};
  c.idle_next = head;
  if (head.valid()) store_.get(head).idle_prev = h;
  idle_head_[c.fn] = h;
  RankHeap::Handle rh =
      rank_.push(RankKey{policy_.eviction_rank(c.entry), next_idle_seq_++}, h);
  c.rank_slot = rh.slot;
  c.rank_gen = rh.gen;
}

void ContainerPool::remove_idle(ContainerHandle h, Container& c) {
  if (c.idle_prev.valid()) {
    store_.get(c.idle_prev).idle_next = c.idle_next;
  } else {
    assert(idle_head_[c.fn] == h);
    (void)h;
    idle_head_[c.fn] = c.idle_next;
  }
  if (c.idle_next.valid()) store_.get(c.idle_next).idle_prev = c.idle_prev;
  c.idle_prev = ContainerHandle{};
  c.idle_next = ContainerHandle{};
  bool erased = rank_.erase(RankHeap::Handle{c.rank_slot, c.rank_gen});
  assert(erased);
  (void)erased;
  c.rank_slot = 0;
  c.rank_gen = 0;
}

void ContainerPool::evict_one(ContainerHandle h, bool expired) {
  Container& c = store_.get(h);
  assert(c.state == ContainerState::Idle);
  remove_idle(h, c);
  flight::record(rt_.now(), flight::Ev::kEviction, c.fn);
  policy_.on_evict(c.entry);
  if (expired) {
    ++expirations_;
  } else {
    ++evictions_;
  }
  used_mb_ -= c.entry.mem_mb;
  c.state = ContainerState::Removed;
  // The record stays in the slab for the duration of the callback so the
  // worker can read teardown state (netns id) without a copy.
  if (on_evict_) on_evict_(c);
  store_.erase(h);
}

bool ContainerPool::make_room(std::uint32_t mem_mb) {
  // Larger than the whole pool: no eviction can make it fit.
  if (mem_mb > capacity_mb_) return false;
  while (used_mb_ + mem_mb > capacity_mb_ && !rank_.empty()) {
    evict_one(*rank_.peek_min(), /*expired=*/false);
  }
  return used_mb_ + mem_mb <= capacity_mb_;
}

ContainerHandle ContainerPool::acquire(FunctionId fn, TimePoint now) {
  if (fn >= idle_head_.size() || !idle_head_[fn].valid()) {
    return ContainerHandle{};
  }
  ContainerHandle h = idle_head_[fn];
  Container& c = store_.get(h);
  remove_idle(h, c);
  flight::record(now, flight::Ev::kContainerAcquire, fn);
  c.prewarm_parked = false;
  c.state = ContainerState::Running;
  ++c.entry.uses;
  c.entry.last_used = now;
  policy_.on_access(c.entry, now);
  return h;
}

ContainerHandle ContainerPool::add_container(FunctionId fn,
                                             const FunctionProfile& profile,
                                             TimePoint now,
                                             std::size_t* sync_evictions) {
  std::uint64_t evictions_before = evictions_;
  bool fits = make_room(profile.mem_mb);
  if (sync_evictions != nullptr) {
    *sync_evictions = evictions_ - evictions_before;
  }
  if (!fits) return ContainerHandle{};
  ContainerHandle h = store_.emplace();
  Container& c = store_.get(h);
  c.id = next_id_++;
  c.fn = fn;
  c.state = ContainerState::Provisioning;
  c.entry.fn = fn;
  c.entry.mem_mb = profile.mem_mb;
  c.entry.init_time = profile.init_time;
  c.entry.created = now;
  c.entry.last_used = now;
  c.entry.uses = 0;
  used_mb_ += profile.mem_mb;
  arm_sweep();
  return h;
}

void ContainerPool::launch(ContainerHandle h, TimePoint now) {
  Container& c = store_.get(h);
  assert(c.state == ContainerState::Provisioning);
  c.state = ContainerState::Running;
  ++c.entry.uses;
  c.entry.last_used = now;
}

void ContainerPool::return_container(ContainerHandle h, TimePoint now) {
  Container& c = store_.get(h);
  assert(c.state == ContainerState::Running);
  c.state = ContainerState::Idle;
  c.entry.last_used = now;
  policy_.on_access(c.entry, now);
  insert_idle(h, c);
  arm_sweep();
}

void ContainerPool::park_prewarmed(ContainerHandle h, TimePoint now) {
  Container& c = store_.get(h);
  assert(c.state == ContainerState::Provisioning);
  c.state = ContainerState::Idle;
  c.entry.last_used = now;
  c.prewarm_parked = true;
  policy_.on_access(c.entry, now);
  insert_idle(h, c);
  arm_sweep();
}

void ContainerPool::remove(ContainerHandle h) {
  Container& c = store_.get(h);
  if (c.state == ContainerState::Idle) remove_idle(h, c);
  used_mb_ -= c.entry.mem_mb;
  c.state = ContainerState::Removed;
  store_.erase(h);
  // Not an eviction: creation failure or shutdown; no policy notification.
}

void ContainerPool::set_capacity_mb(std::uint64_t mb) {
  capacity_mb_ = mb;
  while (used_mb_ > capacity_mb_ && !rank_.empty()) {
    evict_one(*rank_.peek_min(), /*expired=*/false);
  }
  arm_sweep();
}

void ContainerPool::sweep(TimePoint now) {
  // Phase 1: policy-driven expiry (TTL and friends), visiting idle
  // containers in canonical slab order. Policies that cannot expire have
  // nothing to find, so they skip the scan.
  expired_scratch_.clear();
  if (expiring_ != nullptr) {
    store_.for_each([&](ContainerHandle h, Container& c) {
      if (c.state != ContainerState::Idle) return;
      auto exp = expiring_->expires_at(c.entry);
      if (exp.has_value() && *exp <= now) expired_scratch_.push_back(h);
    });
  }
  for (ContainerHandle h : expired_scratch_) {
    const Container& c = store_.get(h);
    FunctionId fn = c.fn;
    bool unused_prewarm = c.prewarm_parked;
    evict_one(h, /*expired=*/true);
    // Prefetching policies may want the container back before the next
    // predicted arrival (HIST's eager-evict + prewarm pattern).
    if (on_prewarm_request_ && !unused_prewarm && !has_idle(fn)) {
      if (auto at = policy_.prewarm_at(fn, now)) {
        on_prewarm_request_(fn, *at);
      }
    }
  }

  // Phase 2: keep a free-memory buffer available for bursts.
  while (free_mb() < cfg_.free_buffer_mb && !rank_.empty()) {
    evict_one(*rank_.peek_min(), /*expired=*/false);
  }
}

bool ContainerPool::validate(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };

  std::uint64_t mem = 0;
  std::size_t idle = 0;
  bool ok = true;
  std::string msg;
  store_.for_each([&](ContainerHandle h, const Container& c) {
    if (!ok) return;
    mem += c.entry.mem_mb;
    if (c.state == ContainerState::Idle) {
      ++idle;
      if (c.rank_gen == 0 ||
          !rank_.contains(RankHeap::Handle{c.rank_slot, c.rank_gen})) {
        ok = false;
        msg = "idle container missing from rank index";
      }
    } else {
      if (c.rank_gen != 0) {
        ok = false;
        msg = "non-idle container holds a rank-index handle";
      }
      if (c.idle_prev.valid() || c.idle_next.valid()) {
        ok = false;
        msg = "non-idle container still linked into an idle list";
      }
    }
    (void)h;
  });
  if (!ok) return fail(msg);
  if (mem != used_mb_) {
    return fail("used_mb does not match sum of container sizes");
  }
  if (idle != rank_.size()) return fail("rank index size != idle count");

  // Walk every per-function list and check link integrity + membership.
  std::size_t listed = 0;
  for (FunctionId fn = 0; fn < idle_head_.size(); ++fn) {
    ContainerHandle prev{};
    ContainerHandle h = idle_head_[fn];
    while (h.valid()) {
      if (!store_.contains(h)) return fail("idle list holds a stale handle");
      const Container& c = store_.get(h);
      if (c.fn != fn) return fail("container linked into wrong fn list");
      if (c.state != ContainerState::Idle) {
        return fail("idle list holds a non-idle container");
      }
      if (!(c.idle_prev == prev)) return fail("idle_prev link broken");
      ++listed;
      if (listed > idle) return fail("idle list cycle detected");
      prev = h;
      h = c.idle_next;
    }
  }
  if (listed != idle) return fail("idle lists do not cover all idle containers");
  return true;
}

}  // namespace ilu
