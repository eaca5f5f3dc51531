#pragma once
// ilu-lint: atomics-floor(relaxed) - histogram cells are independent monotone counters shared by concurrent observers; per-op ordering buys nothing

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

/// LogHistogram: an HDR-style log-bucketed histogram (octave × subbucket)
/// with cheap relaxed-atomic updates, honest p50/p99/p999 over µs→s with
/// bounded relative error, and a deterministic merge (DESIGN.md §12).
/// Several threads may observe into one instance concurrently — the live
/// load harness's producer threads share its lateness histogram.
namespace ilu {

/// HDR-style log-bucketed histogram over [min_value, max_value): each
/// power-of-two octave of the range is split into 2^subbucket_bits linear
/// subbuckets, so the relative error of any quantile upper bound is at most
/// 1 / 2^subbucket_bits (≈3.1% at the default 32 subbuckets/octave). The
/// default range, 1 µs to 100 s in ms units, is 27 octaves × 32 = 864
/// eight-byte buckets: 6.9 KB per histogram.
///
/// An observation is a handful of relaxed atomic ops; the bucket index is
/// pure bit arithmetic on a fixed-point mantissa (no log, no loop):
///
///   t      = round(x / min_value * 1024)           (fixed point, 10 frac bits)
///   octave = bit_width(t) - 1 - 10                 (which power of two)
///   sub    = top `subbucket_bits` bits of t below its leading one
///
/// The exact observed max is kept via CAS so p100 (and saturated p99s) is
/// exact, not a bucket edge. Values below min_value clamp into bucket 0;
/// values at or past max_value are counted outside the buckets, and
/// quantiles landing among them return the exact max. Sums and the max are
/// kept in micro-units rounded to
/// nearest, so an observation of a whole number of µs (in ms units) reads
/// back exactly.
///
/// merge() is a pure integer element-wise add (plus CAS max), hence
/// commutative and associative: merging per-shard histograms yields the same
/// result at any shard count, in any order — required by the determinism
/// contract.
class LogHistogram {
 public:
  static constexpr double kDefaultMin = 1e-3;  // 1 µs when values are ms
  static constexpr double kDefaultMax = 1e5;   // 100 s when values are ms

  explicit LogHistogram(double min_value = kDefaultMin,
                        double max_value = kDefaultMax,
                        unsigned subbucket_bits = 5);

  void observe(double x) {
    const std::int64_t micro = std::llround(x * 1e6);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_micro_.fetch_add(micro, std::memory_order_relaxed);
    update_max(micro);
    // Overflow lives outside the bucket array so the percentile walk can
    // tell "past the range" apart from "in the top bucket".
    if (x >= max_) return;
    buckets_[index_of(x)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Upper bound of the value at quantile q (q in (0, 1]); 0 when empty.
  /// Never exceeds the exact observed max; a target landing in the overflow
  /// region returns the exact overflow max.
  double percentile(double q) const;

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const;
  double mean() const;
  /// Exact observed maximum (0 when empty).
  double observed_max() const;

  double min_value() const { return min_; }
  double max_value() const { return max_; }
  std::size_t subbuckets() const { return std::size_t{1} << sub_bits_; }
  std::size_t num_buckets() const { return buckets_.size(); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper value edge of bucket i.
  double bucket_upper(std::size_t i) const;

  /// True when `other` has identical geometry (merge precondition).
  bool same_geometry(const LogHistogram& other) const {
    return min_ == other.min_ && sub_bits_ == other.sub_bits_ &&
           buckets_.size() == other.buckets_.size();
  }
  /// Element-wise integer merge of `other` into this (deterministic in any
  /// order/grouping). Geometries must match.
  void merge(const LogHistogram& other);

  /// Zero every bucket and scalar, returning the instrument to its
  /// just-constructed state. Not atomic with respect to concurrent
  /// observe() — quiesce writers first (the live-load harness resets
  /// between sweep stages, after each stage has drained).
  void reset();

 private:
  /// Pure bucket index for x in [0, max_value). Underflow and NaN clamp to
  /// bucket 0.
  std::size_t index_of(double x) const {
    double r = x / min_;
    if (!(r >= 1.0)) return 0;
    auto t = static_cast<std::uint64_t>(r * 1024.0);
    unsigned top = static_cast<unsigned>(std::bit_width(t)) - 1;  // ≥ 10
    std::size_t octave = top - 10;
    std::size_t sub = static_cast<std::size_t>(t >> (top - sub_bits_)) &
                      (subbuckets() - 1);
    std::size_t i = (octave << sub_bits_) | sub;
    return i < buckets_.size() ? i : buckets_.size() - 1;
  }

  void update_max(std::int64_t micro);

  double min_;
  double max_;
  unsigned sub_bits_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_micro_{0};
  std::atomic<std::int64_t> max_micro_;
};

}  // namespace ilu
