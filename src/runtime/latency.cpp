#include "runtime/latency.hpp"

#include <cassert>
#include <cmath>

namespace ilu {

LatencyModel::LatencyModel(Kind kind, double a, double b)
    : kind_(kind), a_(a), b_(b) {}

LatencyModel LatencyModel::zero() { return LatencyModel(Kind::Zero, 0, 0); }

LatencyModel LatencyModel::uniform(Duration lo, Duration hi) {
  assert(Duration::zero() <= lo && lo <= hi);
  return LatencyModel(Kind::Uniform, static_cast<double>(lo.count()),
                      static_cast<double>(hi.count()));
}

LatencyModel LatencyModel::normal(Duration mean, Duration sd) {
  assert(mean >= Duration::zero() && sd >= Duration::zero());
  return LatencyModel(Kind::Normal, static_cast<double>(mean.count()),
                      static_cast<double>(sd.count()));
}

LatencyModel LatencyModel::lognormal(Duration median, double sigma) {
  assert(median > Duration::zero() && sigma >= 0.0);
  return LatencyModel(Kind::LogNormal, static_cast<double>(median.count()),
                      sigma);
}

LatencyModel LatencyModel::spiky(LatencyModel base, double p,
                                 LatencyModel spike) {
  assert(p >= 0.0 && p <= 1.0);
  LatencyModel m(Kind::Spiky, 0, 0);
  m.base_ = std::make_shared<const LatencyModel>(std::move(base));
  m.spike_ = std::make_shared<const LatencyModel>(std::move(spike));
  m.spike_p_ = p;
  return m;
}

LatencyModel LatencyModel::shifted(Duration floor, LatencyModel base) {
  assert(floor >= Duration::zero());
  LatencyModel m(Kind::Shifted, static_cast<double>(floor.count()), 0);
  m.base_ = std::make_shared<const LatencyModel>(std::move(base));
  return m;
}

Duration LatencyModel::sample(Rng& rng) const {
  switch (kind_) {
    case Kind::Zero:
      return Duration::zero();
    case Kind::Uniform:
      return Duration{static_cast<std::int64_t>(rng.uniform(a_, b_))};
    case Kind::Normal: {
      double v = rng.normal(a_, b_);
      if (v < 0.0) v = 0.0;
      return Duration{static_cast<std::int64_t>(v)};
    }
    case Kind::LogNormal:
      return Duration{
          static_cast<std::int64_t>(rng.lognormal_median(a_, b_))};
    case Kind::Spiky: {
      Duration v = base_->sample(rng);
      if (rng.bernoulli(spike_p_)) v += spike_->sample(rng);
      return v;
    }
    case Kind::Shifted:
      return Duration{static_cast<std::int64_t>(a_)} + base_->sample(rng);
  }
  return Duration::zero();
}

Duration LatencyModel::mean() const {
  switch (kind_) {
    case Kind::Zero:
      return Duration::zero();
    case Kind::Uniform:
      return Duration{static_cast<std::int64_t>((a_ + b_) / 2.0)};
    case Kind::Normal:
      // Clamping at 0 shifts the mean slightly; negligible for the sd/mean
      // ratios used here, so report the unclamped expectation.
      return Duration{static_cast<std::int64_t>(a_)};
    case Kind::LogNormal:
      // E[X] = median * exp(sigma^2 / 2).
      return Duration{
          static_cast<std::int64_t>(a_ * std::exp(b_ * b_ / 2.0))};
    case Kind::Spiky:
      return base_->mean() +
             Duration{static_cast<std::int64_t>(
                 spike_p_ * static_cast<double>(spike_->mean().count()))};
    case Kind::Shifted:
      return Duration{static_cast<std::int64_t>(a_)} + base_->mean();
  }
  return Duration::zero();
}

Duration LatencyModel::lower_bound() const {
  switch (kind_) {
    case Kind::Zero:
    case Kind::Normal:     // clamped at 0
    case Kind::LogNormal:  // support (0, inf), infimum 0
      return Duration::zero();
    case Kind::Uniform:
      return Duration{static_cast<std::int64_t>(a_)};
    case Kind::Spiky:
      // The spike only ever adds latency.
      return base_->lower_bound();
    case Kind::Shifted:
      return Duration{static_cast<std::int64_t>(a_)} + base_->lower_bound();
  }
  return Duration::zero();
}

}  // namespace ilu
