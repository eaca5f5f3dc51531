#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"
#include "runtime/runtime.hpp"
#include "trace/event_view.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

/// Load generation (the paper's closed/open-loop framework, §6.1).
///
/// Drivers are decoupled from any particular control plane through an
/// InvokeFn, so the same workload can be replayed against an Ilúvatar
/// worker, the OpenWhisk baseline model, or a whole cluster.
namespace ilu {

/// Submit one invocation; the callback fires when it completes (or is
/// dropped).
using InvokeFn =
    std::function<void(FunctionId, std::function<void(const InvokeResult&)>)>;

/// Replays a workload open-loop: invocation i is submitted at trace time
/// events[i].at relative to start(). Uses O(1) outstanding timers by
/// chaining to the next event. An in-RAM Trace and a packed-key arena
/// (in RAM or mmap'd from disk) replay through one EventView hot loop with
/// no per-event branching.
class OpenLoopDriver {
 public:
  OpenLoopDriver(Runtime& rt, InvokeFn invoke);

  /// Begin replay. The viewed storage must outlive the driver's run.
  void start(const Trace& trace) { start(EventView(trace)); }
  void start(EventView events);

  /// Stream completions to `sink` instead of accumulating them in
  /// results(). Mandatory for replays whose event count dwarfs RAM (the
  /// default mode reserves one InvokeResult per event up front); must be
  /// set before start().
  void set_result_sink(std::function<void(const InvokeResult&)> sink) {
    sink_ = std::move(sink);
  }

  bool done() const { return submitted_all_ && outstanding_ == 0; }
  std::size_t submitted() const { return next_; }
  std::size_t outstanding() const { return outstanding_; }
  const std::vector<InvokeResult>& results() const { return results_; }

 private:
  void begin();
  void pump();

  Runtime& rt_;
  InvokeFn invoke_;
  EventView view_;
  bool started_ = false;
  TimePoint epoch_{};
  std::size_t next_ = 0;
  std::size_t outstanding_ = 0;
  bool submitted_all_ = false;
  /// Replay-progress flight milestones: one record per decile of submitted
  /// events (plus start / submit-complete).
  std::size_t milestone_step_ = 0;
  std::size_t next_milestone_ = 0;
  std::function<void(const InvokeResult&)> sink_;
  std::vector<InvokeResult> results_;
};

/// Closed-loop driver: `clients` concurrent callers repeatedly invoking one
/// function with zero think time (how Fig 1 generates concurrency levels).
class ClosedLoopDriver {
 public:
  ClosedLoopDriver(Runtime& rt, InvokeFn invoke, FunctionId fn,
                   std::size_t clients);

  /// Each client performs `iterations` invocations, then stops.
  void start(std::size_t iterations_per_client);

  bool done() const { return active_clients_ == 0 && started_; }
  const std::vector<InvokeResult>& results() const { return results_; }

 private:
  void client_loop(std::size_t remaining);

  Runtime& rt_;
  InvokeFn invoke_;
  FunctionId fn_;
  std::size_t clients_;
  std::size_t active_clients_ = 0;
  bool started_ = false;
  std::vector<InvokeResult> results_;
};

/// Synthetic workload construction (lookbusy-style custom traffic).
struct SyntheticFunctionSpec {
  FunctionProfile profile;
  /// Mean inter-arrival time for this function.
  Duration mean_iat{};
  /// Exponential (Poisson arrivals) or constant spacing.
  bool exponential = false;
  /// Offset of the first invocation.
  Duration phase{};
};

/// Merge per-function arrival processes into one sorted trace.
Trace make_synthetic_trace(const std::vector<SyntheticFunctionSpec>& specs,
                           Duration duration, std::uint64_t seed = 1);

/// Cyclic access pattern: functions are invoked in rotation, one every
/// `gap` (Fig 6's "cyclic" skewed workload).
Trace make_cyclic_trace(const std::vector<FunctionProfile>& profiles,
                        Duration gap, Duration duration);

}  // namespace ilu
