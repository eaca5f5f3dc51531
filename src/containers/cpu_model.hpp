#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/runtime.hpp"

/// Generalized-processor-sharing CPU model (the 48-core Xeon stand-in).
///
/// Each running task has a fixed amount of CPU work (core-seconds) and a
/// cgroup-style weight that doubles as its per-task core cap: a 1-CPU
/// container can never use more than 1 core, and under contention cores are
/// divided proportionally to weight (exactly the paper's observation that
/// cgroup quotas keep allocation proportional under overcommitment).
///
/// The model is *exact*, not time-stepped: rates are recomputed by
/// water-filling on every arrival/departure and the next completion event is
/// rescheduled accordingly.
///
/// It also maintains a Unix-style exponentially-decayed load average over
/// total runnable demand, updated lazily at event boundaries (demand is
/// piecewise constant between events, so the EWMA integral is closed-form).
namespace ilu {

class CpuModel {
 public:
  using TaskId = std::uint64_t;

  CpuModel(Runtime& rt, double cores, double load_tau_seconds = 60.0);

  /// Start a task needing `work_seconds` core-seconds, with cgroup weight /
  /// core-cap `weight` (> 0). `on_complete` fires (via the runtime) when the
  /// work is done; the elapsed wall time depends on contention.
  TaskId submit(double work_seconds, double weight,
                Runtime::Task on_complete);

  /// Abort a running task (no callback). Returns false if unknown.
  bool cancel(TaskId id);

  std::size_t running() const { return tasks_.size(); }

  /// Instantaneous total demand in cores (sum of weights of running tasks).
  double demand() const { return total_weight_; }

  /// Exponentially decayed load average of demand.
  double load_average() const;

  double cores() const { return cores_; }

  /// Observe every demand change (piecewise-constant between events); used
  /// by the EnergyMeter for exact power integration. Takes arguments and is
  /// installed once per model, so it is not a Task candidate.
  // ilu-lint: allow(std-function-hotpath) - set once at wiring time, never on the per-event path
  using DemandObserver = std::function<void(TimePoint, double)>;
  void set_demand_observer(DemandObserver obs) { observer_ = std::move(obs); }

 private:
  struct RunningTask {
    TaskId id = 0;
    double remaining = 0.0;  // core-seconds
    double weight = 1.0;
    double rate = 0.0;  // cores currently allocated
    Runtime::Task on_complete;
  };

  /// Advance all remaining-work counters to rt_.now().
  void advance();
  /// Water-fill rates and (re)schedule the next completion event.
  void recompute_and_schedule();
  void on_completion_event();
  double rate_for(double weight) const;
  void update_load_average(TimePoint now) const;

  Runtime& rt_;
  double cores_;
  double load_tau_;

  /// Running tasks in TaskId (= submission) order: ids only grow, so submit
  /// appends and a completion compacts in place without reordering. Both
  /// sweeps and the order completion callbacks fire in follow this order,
  /// which keeps every run deterministic.
  std::vector<RunningTask> tasks_;
  /// Completion callbacks collected by one completion event; a member so
  /// steady-state completions reuse its capacity.
  std::vector<Runtime::Task> done_scratch_;
  TaskId next_id_ = 1;
  double total_weight_ = 0.0;
  TimePoint last_advance_{};

  Runtime::TimerId completion_timer_ = Runtime::kInvalidTimer;

  mutable double load_avg_ = 0.0;
  mutable TimePoint load_updated_{};
  DemandObserver observer_;
};

}  // namespace ilu
