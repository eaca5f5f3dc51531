#include "trace/workload.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "trace/event_view.hpp"

namespace ilu {

TraceStats compute_stats(const EventView& events,
                         const std::vector<FunctionProfile>& functions,
                         Duration duration) {
  TraceStats s;
  s.num_functions = functions.size();
  s.num_invocations = events.size();
  s.invocations_per_function.assign(functions.size(), 0);
  if (events.empty()) return s;

  const TimePoint first = events.at(0);
  const TimePoint last = events.at(events.size() - 1);
  Duration span = duration > Duration::zero() ? duration : last - first;
  if (span <= Duration::zero()) span = usecs(1);
  s.reqs_per_sec = static_cast<double>(events.size()) / to_sec(span);
  if (events.size() > 1) {
    s.avg_iat = Duration{(last - first).count() /
                         static_cast<std::int64_t>(events.size() - 1)};
  }

  // Little's law: per-function arrival rate x warm execution time.
  std::vector<std::size_t>& counts = s.invocations_per_function;
  for (std::size_t i = 0; i < events.size(); ++i) ++counts[events.fn(i)];
  for (std::size_t f = 0; f < functions.size(); ++f) {
    double rate = static_cast<double>(counts[f]) / to_sec(span);
    s.expected_concurrency += rate * to_sec(functions[f].warm_time);
  }
  return s;
}

TraceStats Trace::stats() const {
  return compute_stats(EventView(*this), functions, duration);
}

std::vector<double> Trace::invocations_per_second_by_minute() const {
  if (events.empty()) return {};
  Duration span = duration > Duration::zero() ? duration : events.back().at;
  auto num_minutes =
      static_cast<std::size_t>(std::ceil(to_sec(span) / 60.0));
  if (num_minutes == 0) num_minutes = 1;
  std::vector<double> out(num_minutes, 0.0);
  for (const auto& e : events) {
    auto m = static_cast<std::size_t>(to_sec(e.at) / 60.0);
    if (m >= out.size()) m = out.size() - 1;
    out[m] += 1.0;
  }
  for (auto& v : out) v /= 60.0;
  return out;
}

bool Trace::valid() const {
  if (!std::is_sorted(events.begin(), events.end(),
                      [](const TraceEvent& a, const TraceEvent& b) {
                        return a.at < b.at;
                      })) {
    return false;
  }
  return std::all_of(events.begin(), events.end(), [&](const TraceEvent& e) {
    return e.fn < functions.size();
  });
}

}  // namespace ilu
