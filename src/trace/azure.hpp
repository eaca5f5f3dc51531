#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "trace/workload.hpp"
#include "util/rng.hpp"

/// Synthetic model of the Azure Functions 2019 trace (Shahrad et al.).
///
/// The real trace is proprietary-scale data we cannot ship; this model
/// reproduces the published marginals the paper's evaluation depends on:
///  - heavy-tailed popularity: ~1% of functions account for ~90% of
///    invocations; over half of functions have inter-arrival times beyond
///    30 minutes (guaranteed cold under a 10-minute TTL),
///  - execution times spanning ~100 ms to minutes (p50 ~1 s, p95 ~1 min),
///  - memory tracked at *application* level and split evenly across the
///    app's functions,
///  - invocations delivered in minute-wide buckets; on replay a single
///    invocation lands at the start of its minute, multiple invocations are
///    equally spaced across it,
///  - a diurnal load swing over the day (appendix Fig "whole trace").
///
/// Cold-start overhead per function is estimated the way the paper does
/// from the dataset: `maximum - average` runtime, i.e. init cost is
/// generated as a function-specific multiple of the execution time.
namespace ilu {

struct AzureModelConfig {
  /// Number of functions in the modeled full trace (the real day-1 data has
  /// ~50k reused functions).
  std::size_t population = 50000;
  /// Trace length in days.
  double days = 1.0;
  std::uint64_t seed = 0xA22BEu;

  /// Per-function mean inter-arrival time: lognormal across functions.
  /// median 45 min with sigma 3.5 yields ~1% of functions carrying ~90% of
  /// invocations and >50% of functions with IAT > 30 min.
  double iat_median_s = 2700.0;
  double iat_sigma = 3.5;
  /// Functions faster than this IAT are clamped (rate cap per function).
  double min_iat_s = 0.25;
  /// Cap on a single function's expected concurrency (warm_exec / IAT):
  /// cloud providers enforce per-function concurrency limits, and without
  /// one a sampled long-running high-rate function floods any server.
  double max_expected_concurrency = 30.0;

  /// Warm execution time: lognormal, p50 1 s / p95 ~1 min => sigma ~2.5.
  double dur_median_s = 1.0;
  double dur_sigma = 2.5;
  double min_dur_s = 0.10;
  double max_dur_s = 600.0;

  /// Init overhead = warm duration x lognormal factor. The paper estimates
  /// cold overhead as (max - average) runtime, which is *small* for most
  /// functions but heavy-tailed; median 0.3 with sigma 0.8 matches that
  /// "generally small (<10%) increase" regime while leaving room for
  /// functions whose init dominates.
  double init_factor_median = 0.25;
  double init_factor_sigma = 1.2;
  double min_init_s = 0.05;
  double max_init_s = 240.0;

  /// Application-level memory (MB), split evenly across the app's functions.
  double app_mem_median_mb = 300.0;
  double app_mem_sigma = 0.8;
  std::uint32_t min_fn_mem_mb = 32;
  std::uint32_t max_fn_mem_mb = 1024;
  /// Functions per application: 1 + Poisson(mean-1).
  double mean_fns_per_app = 2.5;

  /// Fractional amplitude of the diurnal sine modulation.
  double diurnal_amplitude = 0.35;

  /// Temporal locality: each function concentrates most of its traffic in a
  /// daily "active window" (business hours, periodic jobs) — the property
  /// that makes recency a useful eviction signal on the real Azure trace.
  /// Median active-window length in minutes (lognormal across functions);
  /// <= 0 disables activity windows entirely.
  double active_window_median_min = 240.0;
  double active_window_sigma = 0.6;
  /// Relative arrival rate outside the active window (inside is boosted so
  /// the daily total is unchanged).
  double inactive_weight = 0.15;
};

/// Static per-function metadata for the whole modeled population.
struct AzureFunctionMeta {
  double mean_iat_s = 0.0;
  double warm_s = 0.0;
  double init_s = 0.0;
  std::uint32_t mem_mb = 0;
  /// Expected invocations over the whole trace, before bucket sampling.
  double expected_invocations = 0.0;
  /// Daily activity window (minute of day) and its in-window rate boost.
  double active_start_min = 0.0;
  double active_len_min = 1440.0;
  double active_boost = 1.0;
};

class AzureTraceModel {
 public:
  explicit AzureTraceModel(AzureModelConfig cfg = {});

  const AzureModelConfig& config() const { return cfg_; }
  const std::vector<AzureFunctionMeta>& population() const { return pop_; }

  /// The paper's three samplers. If target_rps > 0, per-function rates are
  /// scaled (Little's-law style load adjustment) so the generated trace hits
  /// approximately that request rate.
  Trace sample_rare(std::size_t n, double target_rps = 0.0) const;
  Trace sample_representative(std::size_t n, double target_rps = 0.0) const;
  Trace sample_random(std::size_t n, double target_rps = 0.0) const;

  /// Build a trace for an explicit set of population indices.
  Trace build_trace(const std::vector<std::size_t>& fn_indices,
                    double rate_scale = 1.0) const;

  /// Stream the events of functions fn_indices[fi_begin, fi_end) —
  /// `emit(at, fi)` sees them in function-major order (unsorted in time),
  /// with fi the *global* position within fn_indices. Each function draws
  /// from its own RNG substream keyed by population index, so any partition
  /// of [0, n) into subranges generates exactly the events of a single
  /// build_trace(fn_indices, rate_scale) call. This is the bounded-memory
  /// entry point the chunked on-disk generator (arena_gen.hpp) is built on.
  void generate_events(
      const std::vector<std::size_t>& fn_indices, double rate_scale,
      std::size_t fi_begin, std::size_t fi_end,
      const std::function<void(TimePoint, FunctionId)>& emit) const;

  /// The FunctionProfile for one population index (the samplers' naming and
  /// unit conversions, one function at a time).
  FunctionProfile profile_for(std::size_t population_index) const;

  /// Expected invocations/second for each minute of the full (unsampled)
  /// trace — the appendix "whole trace" timeseries. One Poisson draw per
  /// minute over the aggregated rate.
  std::vector<double> full_trace_rps_by_minute() const;

  /// Diurnal modulation factor for a given minute of day (mean 1.0).
  double diurnal(double minute_of_day) const;

  /// Per-function activity modulation for a given minute of day (mean 1.0
  /// over the day).
  double activity(const AzureFunctionMeta& m, double minute_of_day) const;

  /// The samplers' deterministic index selection, public so the on-disk
  /// generator (arena_gen / tools/trace_gen) can reuse the samplers'
  /// function choice without materializing a trace.
  std::vector<std::size_t> pick_rare(std::size_t n) const;
  std::vector<std::size_t> pick_representative(std::size_t n) const;
  std::vector<std::size_t> pick_random(std::size_t n) const;

 private:
  std::vector<std::size_t> indices_sorted_by_popularity() const;

  AzureModelConfig cfg_;
  std::vector<AzureFunctionMeta> pop_;
};

}  // namespace ilu
