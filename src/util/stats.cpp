#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ilu {

void Welford::add(double x) {
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Welford::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Welford::stddev() const { return std::sqrt(variance()); }

double Welford::cov() const {
  if (mean_ == 0.0) return 0.0;
  return stddev() / mean_;
}

void Welford::reset() {
  n_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
}

MovingWindow::MovingWindow(std::size_t capacity) : capacity_(capacity) {
  assert(capacity_ > 0);
}

void MovingWindow::add(double x) {
  sum_ += x;
  if (ring_.size() < capacity_) {
    if (ring_.empty()) ring_.reserve(capacity_);
    ring_.push_back(x);
    return;
  }
  sum_ -= ring_[head_];
  ring_[head_] = x;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
}

double MovingWindow::mean() const {
  if (ring_.empty()) return 0.0;
  return sum_ / static_cast<double>(ring_.size());
}

SlidingRateMeter::SlidingRateMeter(Duration window) : window_(window) {
  assert(window_.count() > 0);
}

void SlidingRateMeter::record(TimePoint t) {
  if (first_record_ < TimePoint::zero()) first_record_ = t;
  events_.push_back(t);
  expire(t);
}

void SlidingRateMeter::expire(TimePoint now) {
  while (!events_.empty() && events_.front() + window_ < now) {
    events_.pop_front();
  }
}

double SlidingRateMeter::rate_per_sec(TimePoint now) {
  expire(now);
  Duration effective = window_;
  if (first_record_ >= TimePoint::zero() && now - first_record_ < window_) {
    effective = std::max(now - first_record_, usecs(1));
  }
  return static_cast<double>(events_.size()) / to_sec(effective);
}

double Summary::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Summary::min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Summary::max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

void Summary::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Summary::percentile(double p) const {
  if (values_.empty()) return 0.0;
  assert(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (values_.size() == 1) return values_[0];
  double rank = (p / 100.0) * static_cast<double>(values_.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, values_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

void Summary::clear() {
  values_.clear();
  sorted_ = false;
}

BucketHistogram::BucketHistogram(double bucket_width, std::size_t num_buckets)
    : width_(bucket_width), counts_(num_buckets, 0) {
  assert(width_ > 0.0 && num_buckets > 0);
}

void BucketHistogram::add(double x) {
  if (x < 0.0) x = 0.0;
  auto i = static_cast<std::size_t>(x / width_);
  if (i >= counts_.size()) i = counts_.size() - 1;
  ++counts_[i];
  ++total_;
}

double BucketHistogram::quantile_upper_bound(double fraction) const {
  assert(fraction > 0.0 && fraction <= 1.0);
  if (total_ == 0) return 0.0;
  auto target = static_cast<std::uint64_t>(
      std::ceil(fraction * static_cast<double>(total_)));
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    acc += counts_[i];
    if (acc >= target) return width_ * static_cast<double>(i + 1);
  }
  return width_ * static_cast<double>(counts_.size());
}

double BucketHistogram::quantile_lower_bound(double fraction) const {
  double upper = quantile_upper_bound(fraction);
  return upper >= width_ ? upper - width_ : 0.0;
}

void BucketHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

}  // namespace ilu
