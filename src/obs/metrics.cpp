#include "obs/metrics.hpp"
// ilu-lint: atomics-floor(relaxed) - histogram cells are independent monotone counters; the max CAS loop tolerates stale views

#include <algorithm>
#include <cmath>
#include <limits>

namespace ilu {

namespace {

/// Relaxed CAS max — a lock-free exact extreme; the loop runs only while
/// this observation is actually extending the record.
void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

LogHistogram::LogHistogram(double min_value, double max_value,
                           unsigned subbucket_bits)
    : min_(min_value > 0.0 ? min_value : kDefaultMin),
      max_(max_value > min_ ? max_value : min_ * 2.0),
      sub_bits_(subbucket_bits > 0 && subbucket_bits <= 10 ? subbucket_bits
                                                           : 5),
      buckets_(static_cast<std::size_t>(
                   std::ceil(std::log2(max_ / min_)))
               << sub_bits_),
      max_micro_(std::numeric_limits<std::int64_t>::min()) {}

void LogHistogram::update_max(std::int64_t micro) {
  atomic_max(max_micro_, micro);
}

double LogHistogram::sum() const {
  return static_cast<double>(sum_micro_.load(std::memory_order_relaxed)) /
         1e6;
}

double LogHistogram::mean() const {
  std::uint64_t n = count();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

double LogHistogram::observed_max() const {
  if (count() == 0) return 0.0;
  return static_cast<double>(max_micro_.load(std::memory_order_relaxed)) /
         1e6;
}

double LogHistogram::bucket_upper(std::size_t i) const {
  std::size_t octave = i >> sub_bits_;
  std::size_t sub = i & (subbuckets() - 1);
  double octave_base = min_ * static_cast<double>(std::uint64_t{1} << octave);
  return octave_base *
         (1.0 + static_cast<double>(sub + 1) /
                    static_cast<double>(subbuckets()));
}

double LogHistogram::percentile(double q) const {
  std::uint64_t n = count();
  if (n == 0) return 0.0;
  auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  if (target == 0) target = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += bucket(i);
    if (seen >= target) {
      // Clamp to the exact observed max so p100 (and any quantile landing
      // in the top occupied bucket) never overshoots the data.
      return std::min(bucket_upper(i), observed_max());
    }
  }
  // Target lies in the overflow region; the exact max is the tight bound.
  return observed_max();
}

void LogHistogram::merge(const LogHistogram& other) {
  if (!same_geometry(other)) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    std::uint64_t v = other.buckets_[i].load(std::memory_order_relaxed);
    if (v) buckets_[i].fetch_add(v, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_micro_.fetch_add(other.sum_micro_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  if (other.count_.load(std::memory_order_relaxed) > 0) {
    atomic_max(max_micro_, other.max_micro_.load(std::memory_order_relaxed));
  }
}

void LogHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_micro_.store(0, std::memory_order_relaxed);
  max_micro_.store(std::numeric_limits<std::int64_t>::min(),
                   std::memory_order_relaxed);
}

}  // namespace ilu
