#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "util/dcheck.hpp"

/// Workload representation: a function table plus a time-ordered invocation
/// stream. This is the open-loop "timeseries of function invocations" the
/// paper's load-generation framework produces for repeatable experiments.
namespace ilu {

struct TraceEvent {
  TimePoint at{};
  FunctionId fn = 0;
};

struct TraceStats {
  std::size_t num_functions = 0;
  std::size_t num_invocations = 0;
  double reqs_per_sec = 0.0;
  /// Mean inter-arrival time across the merged stream (Table 2's "Avg. IAT").
  Duration avg_iat{};
  /// Little's-law expected number of concurrently running invocations:
  /// sum over functions of (arrival rate x mean warm execution time).
  double expected_concurrency = 0.0;
  /// Invocations of each function, indexed by FunctionId.
  std::vector<std::size_t> invocations_per_function;
};

class EventView;

/// Table 2's statistics in one pass over any event storage, in
/// O(functions) memory: `trace_tool info` runs it over a mmap'd arena file
/// without materializing the events, and Trace::stats() over the trace's
/// own events. Every event's fn must index `functions`.
TraceStats compute_stats(const EventView& events,
                         const std::vector<FunctionProfile>& functions,
                         Duration duration);

struct Trace {
  std::vector<FunctionProfile> functions;
  /// Sorted by `at`, ties in generation order.
  std::vector<TraceEvent> events;
  /// Nominal length of the workload (events all lie in [0, duration]).
  Duration duration{};

  TraceStats stats() const;

  /// Invocations per second, bucketed by minute — the appendix timeseries
  /// figures. Bucket i covers [i min, i+1 min).
  std::vector<double> invocations_per_second_by_minute() const;

  /// Verify events are sorted and reference valid functions.
  bool valid() const;
};

/// The 64-bit key an event packs into: (microsecond << 20) | function id.
///
/// Sorting keys as plain integers orders events by time, then by function
/// id at the same microsecond — the order every generator already emits, so
/// packing a Trace and sorting its keys reproduces its event order. The
/// ilu-arena-v1 file stores one column of these keys (DESIGN.md §13).
struct PackedKey {
  /// Function id width inside a packed key. Supports ~1M functions and
  /// timestamps to ~2^43 µs (about 100 days) — both asserted at pack time.
  static constexpr int kFnBits = 20;
  static constexpr std::uint64_t kMaxFn = (1ull << kFnBits) - 1;
  static constexpr std::int64_t kMaxUs = (1ll << (63 - kFnBits)) - 1;

  /// Pack one event into its 64-bit key. Bounds are ILU_DCHECKed (debug /
  /// checks-forced builds abort on out-of-range inputs; release packs
  /// garbage, which the arena-file verifier catches downstream).
  static std::uint64_t pack(TimePoint at, FunctionId fn) {
    const std::int64_t us = at.count();
    ILU_DCHECK(us >= 0 && us <= kMaxUs, "event time out of packed-key range");
    ILU_DCHECK(fn <= kMaxFn, "function id out of packed-key range");
    return (static_cast<std::uint64_t>(us) << kFnBits) |
           static_cast<std::uint64_t>(fn);
  }
  /// Unpack the timestamp / function-id halves of a key.
  static TimePoint key_at(std::uint64_t key) {
    return Duration{static_cast<std::int64_t>(key >> kFnBits)};
  }
  static FunctionId key_fn(std::uint64_t key) {
    return static_cast<FunctionId>(key & kMaxFn);
  }
};

}  // namespace ilu
