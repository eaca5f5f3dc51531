#pragma once

#include <memory>

#include "util/rng.hpp"
#include "util/time.hpp"

/// Parametric latency distributions for modeling substrate operations that
/// this testbed does not physically run (containerd RPCs, Docker API calls,
/// agent HTTP round-trips, Kafka publish/consume, CouchDB reads/writes, JVM
/// GC stalls). Each model is calibrated from numbers the paper itself
/// reports; see containers/backend.hpp and baseline/openwhisk.hpp.
namespace ilu {

class LatencyModel {
 public:
  /// Always 0.
  static LatencyModel zero();
  /// Uniform in [lo, hi].
  static LatencyModel uniform(Duration lo, Duration hi);
  /// Normal(mean, sd), clamped at >= 0.
  static LatencyModel normal(Duration mean, Duration sd);
  /// Log-normal with given median and log-space sigma: the canonical shape
  /// for service latencies (long right tail).
  static LatencyModel lognormal(Duration median, double sigma);
  /// With probability p, adds a sample of `spike` on top of `base` —
  /// models GC pauses / lock-convoy stalls.
  static LatencyModel spiky(LatencyModel base, double p, LatencyModel spike);

  /// `floor + base`: a hard minimum (serialization + wire + interrupt
  /// latency that no sample can undercut) plus a jitter distribution. The
  /// floor shows up in lower_bound(), which conservative parallel
  /// simulation uses as cross-shard lookahead.
  static LatencyModel shifted(Duration floor, LatencyModel base);

  /// Draw one latency sample.
  Duration sample(Rng& rng) const;

  /// Analytic expectation (exact for all shapes; used for sanity checks and
  /// capacity math).
  Duration mean() const;

  /// Infimum of the support: no sample is ever below this. Zero for the
  /// unbounded shapes (normal, lognormal); the floor for shifted models.
  Duration lower_bound() const;

  LatencyModel() : LatencyModel(zero()) {}

 private:
  enum class Kind { Zero, Uniform, Normal, LogNormal, Spiky, Shifted };

  LatencyModel(Kind kind, double a, double b);

  Kind kind_;
  // Interpretation depends on kind: Uniform{a=lo,b=hi},
  // Normal{a=mean,b=sd}, LogNormal{a=median,b=sigma}, Shifted{a=floor_us}.
  double a_ = 0.0;
  double b_ = 0.0;
  // Spiky and Shifted composition.
  std::shared_ptr<const LatencyModel> base_;
  std::shared_ptr<const LatencyModel> spike_;
  double spike_p_ = 0.0;
};

}  // namespace ilu
