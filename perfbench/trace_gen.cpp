#include "trace_gen.hpp"

#include "bench.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

ilu::Trace azure_trace(const ilu::AzureTraceModel& model,
                       const std::vector<std::size_t>& fn_indices,
                       double start_minute, double minutes, double target_rps,
                       std::uint64_t seed) {
  const auto n_min = static_cast<std::size_t>(std::llround(minutes));
  const auto first = static_cast<std::size_t>(std::llround(start_minute));
  // lambda[f][m] at the natural rate; the scale follows from its sum.
  std::vector<double> lambda(fn_indices.size() * n_min);
  double expected = 0.0;
  for (std::size_t f = 0; f < fn_indices.size(); ++f) {
    const ilu::AzureFunctionMeta& m = model.population().at(fn_indices[f]);
    for (std::size_t t = 0; t < n_min; ++t) {
      const auto mod = static_cast<double>((first + t) % 1440);
      const double l =
          60.0 / m.mean_iat_s * model.diurnal(mod) * model.activity(m, mod);
      lambda[f * n_min + t] = l;
      expected += l;
    }
  }
  const double scale =
      target_rps > 0.0 && expected > 0.0 ? target_rps * minutes * 60.0 / expected : 1.0;

  SeedRng rng(seed);
  std::vector<std::pair<std::int64_t, ilu::FunctionId>> events;
  for (std::size_t f = 0; f < fn_indices.size(); ++f) {
    for (std::size_t t = 0; t < n_min; ++t) {
      const double l = lambda[f * n_min + t] * scale;
      if (l <= 0.0) continue;
      // The expected count, rounded up with probability equal to its
      // fraction, at a seeded phase within the minute.
      auto k = static_cast<std::uint64_t>(l);
      if (rng.uniform() < l - static_cast<double>(k)) ++k;
      const double phase = rng.uniform();
      for (std::uint64_t j = 0; j < k; ++j) {
        const double at_s = 60.0 * (static_cast<double>(t) +
                                    (static_cast<double>(j) + phase) / static_cast<double>(k));
        events.emplace_back(static_cast<std::int64_t>(at_s * 1e6),
                            static_cast<ilu::FunctionId>(f));
      }
    }
  }
  std::sort(events.begin(), events.end());

  ilu::Trace trace;
  trace.duration = ilu::secs(minutes * 60.0);
  for (std::size_t idx : fn_indices) trace.functions.push_back(model.profile_for(idx));
  trace.events.reserve(events.size());
  for (const auto& [at, fn] : events) {
    trace.events.push_back(ilu::TraceEvent{ilu::usecs(at), fn});
  }
  return trace;
}

}  // namespace perfbench
