#pragma once

#include <cassert>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "containers/container.hpp"
#include "keepalive/policy.hpp"

/// Faithful replica of the pointer-identity ContainerPool this repo shipped
/// before the slab/handle refactor (DESIGN.md §11): per-container
/// `make_unique`, ownership in an `unordered_map<Container*, unique_ptr>`,
/// per-function idle vectors, and a `multimap` eviction-rank index with an
/// iterator side-map. Kept ONLY as the before/after baseline for
/// `bench/pool_churn` — production code uses the slab-backed pool in
/// src/keepalive/pool.hpp. Background sweeping and metrics are stripped;
/// the churn-path semantics (add/evict/acquire/return) are unchanged.
namespace ilu {

class PointerContainerPool {
 public:
  PointerContainerPool(KeepAlivePolicy& policy, std::uint64_t capacity_mb)
      : policy_(policy), capacity_mb_(capacity_mb) {}

  Container* acquire(FunctionId fn, TimePoint now) {
    auto it = idle_by_fn_.find(fn);
    if (it == idle_by_fn_.end() || it->second.empty()) return nullptr;
    Container* c = it->second.back();
    remove_idle(c);
    c->state = ContainerState::Running;
    ++c->entry.uses;
    c->entry.last_used = now;
    policy_.on_access(c->entry, now);
    return c;
  }

  Container* add_container(FunctionId fn, const FunctionProfile& profile,
                           TimePoint now) {
    if (!make_room(profile.mem_mb)) return nullptr;
    auto owned = std::make_unique<Container>();
    Container* c = owned.get();
    c->id = next_id_++;
    c->fn = fn;
    c->state = ContainerState::Provisioning;
    c->entry.fn = fn;
    c->entry.mem_mb = profile.mem_mb;
    c->entry.created = now;
    c->entry.last_used = now;
    used_mb_ += profile.mem_mb;
    containers_.emplace(c, std::move(owned));
    return c;
  }

  void return_container(Container* c, TimePoint now) {
    c->state = ContainerState::Idle;
    c->entry.last_used = now;
    policy_.on_access(c->entry, now);
    rank_pos_[c] = idle_rank_.emplace(policy_.eviction_rank(c->entry), c);
    idle_by_fn_[c->fn].push_back(c);
  }

  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t used_mb() const { return used_mb_; }
  std::size_t total_count() const { return containers_.size(); }

 private:
  void remove_idle(Container* c) {
    auto it = rank_pos_.find(c);
    assert(it != rank_pos_.end());
    idle_rank_.erase(it->second);
    rank_pos_.erase(it);
    auto& vec = idle_by_fn_[c->fn];
    for (auto rit = vec.rbegin(); rit != vec.rend(); ++rit) {
      if (*rit == c) {
        vec.erase(std::next(rit).base());
        break;
      }
    }
  }

  bool make_room(std::uint32_t mem_mb) {
    while (used_mb_ + mem_mb > capacity_mb_ && !idle_rank_.empty()) {
      Container* victim = idle_rank_.begin()->second;
      remove_idle(victim);
      policy_.on_evict(victim->entry);
      ++evictions_;
      auto it = containers_.find(victim);
      used_mb_ -= victim->entry.mem_mb;
      containers_.erase(it);  // unique_ptr destroys the record
    }
    return used_mb_ + mem_mb <= capacity_mb_;
  }

  KeepAlivePolicy& policy_;
  std::uint64_t capacity_mb_;
  std::uint64_t used_mb_ = 0;
  ContainerId next_id_ = 1;
  std::uint64_t evictions_ = 0;

  std::unordered_map<Container*, std::unique_ptr<Container>> containers_;
  std::unordered_map<FunctionId, std::vector<Container*>> idle_by_fn_;
  std::multimap<double, Container*> idle_rank_;
  std::unordered_map<Container*, std::multimap<double, Container*>::iterator>
      rank_pos_;
};

}  // namespace ilu
