#include "lb/chbl.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace ilu {

void ConsistentHashRing::add_worker(std::size_t worker_index) {
  const auto old_size = static_cast<std::ptrdiff_t>(ring_.size());
  for (std::size_t v = 0; v < vnodes_; ++v) {
    ring_.push_back(
        {splitmix64(hash_combine(splitmix64(worker_index + 1), v)),
         worker_index});
  }
  auto by_point = [](const Point& a, const Point& b) { return a.at < b.at; };
  std::sort(ring_.begin() + old_size, ring_.end(), by_point);
  // inplace_merge is stable, so where a new point collides with an existing
  // one the existing owner comes first and unique() keeps it.
  std::inplace_merge(ring_.begin(), ring_.begin() + old_size, ring_.end(),
                     by_point);
  ring_.erase(std::unique(ring_.begin(), ring_.end(),
                          [](const Point& a, const Point& b) {
                            return a.at == b.at;
                          }),
              ring_.end());
  ++workers_;
}

ChblBalancer::ChblBalancer(std::size_t num_workers)
    : ChblBalancer(num_workers, Config{}) {}

ChblBalancer::ChblBalancer(std::size_t num_workers, Config cfg)
    : cfg_(cfg), ring_(cfg.vnodes_per_worker), seen_(num_workers, 0) {
  for (std::size_t i = 0; i < num_workers; ++i) ring_.add_worker(i);
}

std::size_t ChblBalancer::pick(std::string_view fn_key,
                               const std::vector<double>& loads) {
  double sum = 0.0;
  for (double l : loads) sum += l;
  return pick(ConsistentHashRing::hash_key(fn_key), loads, sum);
}

std::size_t ChblBalancer::pick(std::uint64_t key_hash,
                               const std::vector<double>& loads,
                               double load_sum) {
  assert(!loads.empty());
  const double avg = load_sum / static_cast<double>(loads.size());
  const double bound = cfg_.bound_factor * std::max(1.0, avg);

  // Walk clockwise from the key's point, visiting each distinct worker once
  // in ring order, and stop at the first one within the bound. Every worker
  // visited so far was over it, so last_hops_ also counts the visits.
  last_hops_ = 0;
  if (++epoch_ == 0) {  // the stamp wrapped: forget every old visit
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  const std::vector<ConsistentHashRing::Point>& ring = ring_.points();
  std::size_t i = static_cast<std::size_t>(
      std::lower_bound(ring.begin(), ring.end(), key_hash,
                       [](const ConsistentHashRing::Point& p,
                          std::uint64_t h) { return p.at < h; }) -
      ring.begin());
  for (std::size_t steps = 0;
       steps < ring.size() && last_hops_ < ring_.num_workers(); ++steps, ++i) {
    if (i == ring.size()) i = 0;
    const std::size_t w = ring[i].worker;
    if (seen_[w] == epoch_) continue;
    seen_[w] = epoch_;
    if (loads[w] <= bound) return w;
    ++last_hops_;
  }
  // Everyone over the bound: fall back to the least-loaded worker.
  std::size_t best = 0;
  double best_load = std::numeric_limits<double>::infinity();
  for (std::size_t w = 0; w < loads.size(); ++w) {
    if (loads[w] < best_load) {
      best_load = loads[w];
      best = w;
    }
  }
  return best;
}

}  // namespace ilu
