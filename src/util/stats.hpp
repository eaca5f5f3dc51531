#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "util/time.hpp"

/// Online and batch statistics used throughout the control plane:
/// - Welford: single-pass mean/variance/CoV (the HIST keep-alive policy's
///   predictability test uses exactly this, citing Welford's algorithm).
/// - MovingWindow: bounded history with mean, used for the per-function
///   warm/cold execution-time estimates that drive SJF/EEDF queueing.
/// - Summary / percentile helpers for reporting (Fig 1's p50/p99).
/// - SlidingRateMeter: events-per-second over a window (Fig 8 miss speed).
namespace ilu {

/// Welford's online algorithm for mean and variance.
class Welford {
 public:
  void add(double x);
  std::uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Coefficient of variation: stddev / mean; 0 when mean is 0.
  double cov() const;
  void reset();

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Fixed-capacity moving window with O(1) mean maintenance.
///
/// The samples live in a ring that is allocated once, at its full capacity,
/// on the first add (an empty window owns no memory). The running sum adds
/// the new sample before it subtracts the one it replaces, so every mean is
/// bit-identical to a push-back/pop-front window over the same stream.
class MovingWindow {
 public:
  explicit MovingWindow(std::size_t capacity = 10);
  void add(double x);
  bool empty() const { return ring_.empty(); }
  std::size_t size() const { return ring_.size(); }
  double mean() const;

 private:
  std::size_t capacity_;
  /// Grows to capacity_, then the oldest sample (at head_) is overwritten.
  std::vector<double> ring_;
  std::size_t head_ = 0;
  double sum_ = 0.0;
};

/// Count of events inside a sliding time window; used for cold-starts/sec.
class SlidingRateMeter {
 public:
  explicit SlidingRateMeter(Duration window);
  void record(TimePoint t);
  /// Events per second over the window ending at `now`.
  double rate_per_sec(TimePoint now);

 private:
  void expire(TimePoint now);
  Duration window_;
  std::deque<TimePoint> events_;
  /// Time of the first record: before a full window has elapsed, rates are
  /// computed over the observed span rather than the nominal window (else
  /// early-startup rates are underestimated by window/elapsed).
  TimePoint first_record_{-1};
};

/// Batch summary of a sample: percentiles by linear interpolation.
class Summary {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  void add_ms(Duration d) { add(to_ms(d)); }
  std::size_t count() const { return values_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  /// p in [0, 100]. Sorts lazily (const via mutable cache).
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p99() const { return percentile(99.0); }
  void clear();

 private:
  void ensure_sorted() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Fixed-width bucketed histogram over [0, bucket_width * num_buckets).
/// Values beyond the last bucket are clamped into it (the HIST policy's
/// "4-hour window, overflow bucket" behaviour).
class BucketHistogram {
 public:
  BucketHistogram(double bucket_width, std::size_t num_buckets);
  void add(double x);
  std::uint64_t total() const { return total_; }
  std::size_t num_buckets() const { return counts_.size(); }
  /// Smallest x-upper-bound such that at least `fraction` of the mass lies
  /// at or below it. fraction in (0, 1]. Returns 0 if empty.
  double quantile_upper_bound(double fraction) const;
  /// Lower edge of the same bucket (quantile_upper_bound minus one bucket
  /// width, floored at 0). Prefetchers aim *before* this edge.
  double quantile_lower_bound(double fraction) const;
  void reset();

 private:
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace ilu
