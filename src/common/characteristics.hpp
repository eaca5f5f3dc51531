#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "util/stats.hpp"

/// Per-function learned execution characteristics (§4.2): moving-window
/// warm/cold execution times and inter-arrival times. These drive the
/// size-aware queue policies (SJF/EEDF use expected execution time, RARE
/// uses IAT) and are exposed to all control-plane components, mirroring the
/// paper's data-driven policy support.
///
/// An entry exists only for a function this map has seen: the first
/// `on_arrival` / `record_*` of a function creates it. A worker therefore
/// holds characteristics for the functions it runs, not for every function
/// its cluster registered (DESIGN.md §21). Queries about an unseen function
/// return zeros and create nothing.
namespace ilu {

class CharacteristicsMap {
 public:
  explicit CharacteristicsMap(std::size_t window = 10) : window_(window) {}

  /// Record an arrival (updates IAT tracking).
  void on_arrival(FunctionId fn, TimePoint now);

  /// Record a completed execution.
  void record_warm(FunctionId fn, Duration exec);
  void record_cold(FunctionId fn, Duration exec);

  /// Moving-window expected times; zero when the function is unseen (the
  /// paper prioritizes new functions by treating their time as 0).
  Duration expected_warm(FunctionId fn) const;
  Duration expected_cold(FunctionId fn) const;

  /// Mean inter-arrival time in seconds (0 when < 2 arrivals).
  double mean_iat_s(FunctionId fn) const;

  std::uint64_t arrivals(FunctionId fn) const;

  /// Number of functions with an entry (those seen so far).
  // ilu-lint: allow(test-only-api) - test hook: entries exist only where a function ran
  std::size_t tracked() const { return entries_.size(); }

 private:
  struct FnChars {
    explicit FnChars(std::size_t window)
        : warm_ms(window), cold_ms(window) {}
    MovingWindow warm_ms;
    MovingWindow cold_ms;
    Welford iat_s;
    TimePoint last_arrival{-1};
    std::uint64_t arrivals = 0;
  };
  static constexpr std::uint32_t kNoEntry = UINT32_MAX;

  const FnChars* find(FunctionId fn) const;
  FnChars& at(FunctionId fn);

  std::size_t window_;
  /// Index into entries_ by FunctionId (kNoEntry = unseen); grows to the
  /// largest id seen.
  std::vector<std::uint32_t> slot_;
  /// One entry per seen function, in first-seen order.
  std::vector<FnChars> entries_;
};

}  // namespace ilu
