#include "trace/azure.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <string>

namespace ilu {

namespace {
double clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}
}  // namespace

AzureTraceModel::AzureTraceModel(AzureModelConfig cfg) : cfg_(cfg) {
  assert(cfg_.population > 0 && cfg_.days > 0.0);
  Rng rng(cfg_.seed);
  pop_.resize(cfg_.population);

  const double trace_secs = cfg_.days * 86400.0;
  std::size_t i = 0;
  while (i < pop_.size()) {
    // One application: shared memory budget, split evenly across functions.
    auto fns_in_app = static_cast<std::size_t>(
        1 + rng.poisson(std::max(0.0, cfg_.mean_fns_per_app - 1.0)));
    fns_in_app = std::min(fns_in_app, pop_.size() - i);
    double app_mem =
        rng.lognormal_median(cfg_.app_mem_median_mb, cfg_.app_mem_sigma);
    auto fn_mem = static_cast<std::uint32_t>(clamp(
        app_mem / static_cast<double>(fns_in_app),
        static_cast<double>(cfg_.min_fn_mem_mb),
        static_cast<double>(cfg_.max_fn_mem_mb)));

    for (std::size_t k = 0; k < fns_in_app; ++k, ++i) {
      AzureFunctionMeta& m = pop_[i];
      m.mean_iat_s = std::max(
          cfg_.min_iat_s,
          rng.lognormal_median(cfg_.iat_median_s, cfg_.iat_sigma));
      m.warm_s = clamp(rng.lognormal_median(cfg_.dur_median_s, cfg_.dur_sigma),
                       cfg_.min_dur_s, cfg_.max_dur_s);
      if (cfg_.max_expected_concurrency > 0.0) {
        m.mean_iat_s = std::max(m.mean_iat_s,
                                m.warm_s / cfg_.max_expected_concurrency);
      }
      m.init_s = clamp(
          m.warm_s * rng.lognormal_median(cfg_.init_factor_median,
                                          cfg_.init_factor_sigma),
          cfg_.min_init_s, cfg_.max_init_s);
      m.mem_mb = fn_mem;
      m.expected_invocations = trace_secs / m.mean_iat_s;

      if (cfg_.active_window_median_min > 0.0) {
        m.active_start_min = rng.uniform(0.0, 1440.0);
        m.active_len_min = std::min(
            1440.0, rng.lognormal_median(cfg_.active_window_median_min,
                                         cfg_.active_window_sigma));
        // Boost inside the window so the daily mean stays 1:
        //   f*boost + (1-f)*inactive = 1.
        double f = m.active_len_min / 1440.0;
        m.active_boost =
            (1.0 - cfg_.inactive_weight * (1.0 - f)) / std::max(f, 1e-6);
      }
    }
  }
}

double AzureTraceModel::activity(const AzureFunctionMeta& m,
                                 double minute_of_day) const {
  if (cfg_.active_window_median_min <= 0.0) return 1.0;
  double offset = minute_of_day - m.active_start_min;
  if (offset < 0.0) offset += 1440.0;
  return offset < m.active_len_min ? m.active_boost : cfg_.inactive_weight;
}

double AzureTraceModel::diurnal(double minute_of_day) const {
  // Peak mid-day, trough at night; mean exactly 1 over a full day.
  return 1.0 + cfg_.diurnal_amplitude *
                   std::sin(2.0 * std::numbers::pi *
                            (minute_of_day - 360.0) / 1440.0);
}

namespace {

/// Minute-bucket generation per function, then the paper's replay rule:
/// a single invocation lands at the start of the minute; k invocations are
/// equally spaced across it. `emit(at, fi)` sees events in function-major
/// order; build_trace inlines it, generate_events streams it to the chunked
/// on-disk generator, and both draw RNG identically.
template <typename Emit>
void generate_bucketed(const AzureTraceModel& model,
                       const std::vector<std::size_t>& fn_indices,
                       double rate_scale, std::size_t fi_begin,
                       std::size_t fi_end, Emit&& emit) {
  const AzureModelConfig& cfg = model.config();
  const auto num_minutes =
      static_cast<std::size_t>(std::llround(cfg.days * 1440.0));
  Rng rng = Rng(cfg.seed).substream(0x7ace);
  for (std::size_t fi = fi_begin; fi < fi_end; ++fi) {
    const AzureFunctionMeta& m = model.population()[fn_indices[fi]];
    Rng frng = rng.substream(fn_indices[fi]);
    const double per_min_rate = rate_scale * 60.0 / m.mean_iat_s;
    for (std::size_t minute = 0; minute < num_minutes; ++minute) {
      auto mod = static_cast<double>(minute % 1440);
      double lambda = per_min_rate * model.diurnal(mod) * model.activity(m, mod);
      std::uint64_t k = frng.poisson(lambda);
      if (k == 0) continue;
      double minute_start_s = static_cast<double>(minute) * 60.0;
      double spacing_s = 60.0 / static_cast<double>(k);
      for (std::uint64_t j = 0; j < k; ++j) {
        emit(secs(minute_start_s + spacing_s * static_cast<double>(j)),
             static_cast<FunctionId>(fi));
      }
    }
  }
}

std::vector<FunctionProfile> profiles_for(
    const AzureTraceModel& model, const std::vector<std::size_t>& fn_indices) {
  std::vector<FunctionProfile> out;
  out.reserve(fn_indices.size());
  for (std::size_t idx : fn_indices) out.push_back(model.profile_for(idx));
  return out;
}

}  // namespace

FunctionProfile AzureTraceModel::profile_for(
    std::size_t population_index) const {
  const AzureFunctionMeta& m = pop_.at(population_index);
  FunctionProfile p;
  p.name = "azure_fn_" + std::to_string(population_index);
  p.mem_mb = m.mem_mb;
  p.warm_time = secs(m.warm_s);
  p.init_time = secs(m.init_s);
  return p;
}

void AzureTraceModel::generate_events(
    const std::vector<std::size_t>& fn_indices, double rate_scale,
    std::size_t fi_begin, std::size_t fi_end,
    const std::function<void(TimePoint, FunctionId)>& emit) const {
  assert(rate_scale > 0.0 && fi_begin <= fi_end &&
         fi_end <= fn_indices.size());
  generate_bucketed(*this, fn_indices, rate_scale, fi_begin, fi_end,
                    [&](TimePoint at, FunctionId fn) { emit(at, fn); });
}

Trace AzureTraceModel::build_trace(const std::vector<std::size_t>& fn_indices,
                                   double rate_scale) const {
  assert(rate_scale > 0.0);
  Trace t;
  t.duration = secs(cfg_.days * 86400.0);
  t.functions = profiles_for(*this, fn_indices);
  generate_bucketed(*this, fn_indices, rate_scale, 0, fn_indices.size(),
                    [&](TimePoint at, FunctionId fn) {
                      t.events.push_back(TraceEvent{at, fn});
                    });
  std::stable_sort(t.events.begin(), t.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at < b.at;
                   });
  return t;
}

std::vector<std::size_t> AzureTraceModel::indices_sorted_by_popularity()
    const {
  std::vector<std::size_t> idx(pop_.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return pop_[a].expected_invocations < pop_[b].expected_invocations;
  });
  return idx;
}

namespace {
/// Two-pass load adjustment: generate at natural rate, then rescale so the
/// trace hits the requested request rate (the paper scales function IAT
/// CDFs to reach a suitable load for the system under test).
Trace with_target_rps(const AzureTraceModel& model,
                      const std::vector<std::size_t>& indices,
                      double target_rps) {
  Trace natural = model.build_trace(indices);
  if (target_rps <= 0.0 || natural.events.empty()) return natural;
  double natural_rps =
      static_cast<double>(natural.events.size()) / to_sec(natural.duration);
  double scale = target_rps / natural_rps;
  return scale > 0.0 ? model.build_trace(indices, scale) : natural;
}
}  // namespace

std::vector<std::size_t> AzureTraceModel::pick_rare(std::size_t n) const {
  n = std::min(n, pop_.size());
  // The paper: "a random sample of 1000 of the rarest, most infrequently
  // invoked functions — these will usually result in cold starts under a
  // classic 10-minute TTL". So: uniform sample among functions whose mean
  // IAT exceeds the TTL (but that are re-used at least twice, since the
  // paper drops single-invocation functions).
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < pop_.size(); ++i) {
    if (pop_[i].mean_iat_s > 600.0 && pop_[i].expected_invocations >= 2.0) {
      eligible.push_back(i);
    }
  }
  Rng rng = Rng(cfg_.seed).substream(0x2a2e);
  rng.shuffle(eligible);
  if (eligible.size() > n) eligible.resize(n);
  return eligible;
}

std::vector<std::size_t> AzureTraceModel::pick_representative(
    std::size_t n) const {
  n = std::min(n, pop_.size());
  auto sorted = indices_sorted_by_popularity();
  // Stratified: n/4 uniformly from each popularity quartile.
  std::vector<std::size_t> chosen;
  chosen.reserve(n);
  Rng rng = Rng(cfg_.seed).substream(0x4e9);
  std::size_t q = sorted.size() / 4;
  for (int quartile = 0; quartile < 4; ++quartile) {
    std::size_t lo = static_cast<std::size_t>(quartile) * q;
    std::size_t hi = quartile == 3 ? sorted.size() : lo + q;
    std::size_t want = n / 4 + (static_cast<std::size_t>(quartile) < n % 4);
    for (std::size_t k = 0; k < want && hi > lo; ++k) {
      chosen.push_back(sorted[lo + rng.uniform_index(hi - lo)]);
    }
  }
  return chosen;
}

std::vector<std::size_t> AzureTraceModel::pick_random(std::size_t n) const {
  n = std::min(n, pop_.size());
  Rng rng = Rng(cfg_.seed).substream(0xd0e);
  std::vector<std::size_t> chosen;
  chosen.reserve(n);
  std::vector<bool> taken(pop_.size(), false);
  while (chosen.size() < n) {
    auto i = static_cast<std::size_t>(rng.uniform_index(pop_.size()));
    if (!taken[i]) {
      taken[i] = true;
      chosen.push_back(i);
    }
  }
  return chosen;
}

Trace AzureTraceModel::sample_rare(std::size_t n, double target_rps) const {
  return with_target_rps(*this, pick_rare(n), target_rps);
}

Trace AzureTraceModel::sample_representative(std::size_t n,
                                             double target_rps) const {
  return with_target_rps(*this, pick_representative(n), target_rps);
}

Trace AzureTraceModel::sample_random(std::size_t n, double target_rps) const {
  return with_target_rps(*this, pick_random(n), target_rps);
}

std::vector<double> AzureTraceModel::full_trace_rps_by_minute() const {
  const auto num_minutes =
      static_cast<std::size_t>(std::llround(cfg_.days * 1440.0));
  double base_rate_per_min = 0.0;
  for (const auto& m : pop_) base_rate_per_min += 60.0 / m.mean_iat_s;

  Rng rng = Rng(cfg_.seed).substream(0xf011);
  std::vector<double> out(num_minutes, 0.0);
  for (std::size_t minute = 0; minute < num_minutes; ++minute) {
    double lambda =
        base_rate_per_min * diurnal(static_cast<double>(minute % 1440));
    out[minute] = static_cast<double>(rng.poisson(lambda)) / 60.0;
  }
  return out;
}

}  // namespace ilu
