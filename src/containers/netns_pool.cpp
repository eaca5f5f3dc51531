#include "containers/netns_pool.hpp"

#include <algorithm>

namespace ilu {

NetnsPool::NetnsPool(Runtime& rt, Rng rng, Config cfg)
    : rt_(rt), rng_(rng), cfg_(cfg) {
  if (cfg_.enabled && cfg_.target_size > 0) {
    // Pre-populate at startup: these creations happen before any traffic,
    // so they are modeled as instantaneous pool contents.
    available_ = cfg_.target_size;
  }
}

TimePoint NetnsPool::serialized_create() {
  // All namespace creations contend on one global lock: each takes the
  // sampled latency and they execute strictly one after another.
  TimePoint start = std::max(rt_.now(), lock_free_at_);
  lock_free_at_ = start + cfg_.create_latency.sample(rng_);
  return lock_free_at_;
}

void NetnsPool::refill() {
  refill_scheduled_ = false;
  if (!cfg_.enabled) return;
  if (available_ >= cfg_.target_size) return;
  TimePoint done = serialized_create();
  refill_scheduled_ = true;
  rt_.schedule(done - rt_.now(), [this] {
    ++available_;
    refill_scheduled_ = false;
    if (available_ < cfg_.target_size) refill();
  });
}

void NetnsPool::acquire(AcquireCb cb) {
  std::uint64_t id = next_id_++;
  if (cfg_.enabled && available_ > 0) {
    --available_;
    if (available_ < cfg_.low_watermark && !refill_scheduled_) refill();
    cb(id, Duration::zero());
    return;
  }
  // Critical-path creation behind the global lock.
  TimePoint done = serialized_create();
  Duration penalty = done - rt_.now();
  cb(id, penalty);
  if (cfg_.enabled && !refill_scheduled_) refill();
}

void NetnsPool::release(std::uint64_t) {
  // Namespaces die with their container; the background refill keeps the
  // pool stocked, so nothing to do here. Kept for API symmetry and future
  // recycling experiments.
}

}  // namespace ilu
