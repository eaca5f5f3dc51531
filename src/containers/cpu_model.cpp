#include "containers/cpu_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace ilu {

namespace {
constexpr double kWorkEpsilon = 1e-9;  // core-seconds considered "done"
}

CpuModel::CpuModel(Runtime& rt, double cores, double load_tau_seconds)
    : rt_(rt), cores_(cores), load_tau_(load_tau_seconds) {
  assert(cores_ > 0.0 && load_tau_ > 0.0);
  last_advance_ = rt_.now();
  load_updated_ = rt_.now();
}

double CpuModel::rate_for(double weight) const {
  // Proportional sharing with per-task core caps equal to the weight. When
  // total demand exceeds the machine, every task's proportional share
  // cores*w/W is already below its cap w, so water-filling reduces to a
  // single scaling factor.
  if (total_weight_ <= cores_) return weight;
  return weight * cores_ / total_weight_;
}

void CpuModel::update_load_average(TimePoint now) const {
  double dt = to_sec(now - load_updated_);
  if (dt <= 0.0) return;
  double a = std::exp(-dt / load_tau_);
  // Demand was constant at total_weight_ over (load_updated_, now].
  load_avg_ = total_weight_ + (load_avg_ - total_weight_) * a;
  load_updated_ = now;
}

double CpuModel::load_average() const {
  update_load_average(rt_.now());
  return load_avg_;
}

void CpuModel::advance() {
  TimePoint now = rt_.now();
  update_load_average(now);
  double dt = to_sec(now - last_advance_);
  last_advance_ = now;
  if (dt <= 0.0 || tasks_.empty()) return;
  for (RunningTask& t : tasks_) {
    t.remaining -= t.rate * dt;
    if (t.remaining < 0.0) t.remaining = 0.0;
  }
}

void CpuModel::recompute_and_schedule() {
  if (completion_timer_ != Runtime::kInvalidTimer) {
    rt_.cancel(completion_timer_);
    completion_timer_ = Runtime::kInvalidTimer;
  }
  if (tasks_.empty()) return;

  double min_eta = std::numeric_limits<double>::infinity();
  for (RunningTask& t : tasks_) {
    t.rate = rate_for(t.weight);
    double eta = t.rate > 0.0 ? t.remaining / t.rate : 0.0;
    if (eta < min_eta) min_eta = eta;
  }
  // Round up so virtual time always advances; completed work is detected
  // by the epsilon test rather than exact-zero remaining.
  auto delay = Duration{static_cast<std::int64_t>(std::ceil(
      std::max(0.0, min_eta) * 1e6))};
  completion_timer_ = rt_.schedule(delay, [this] { on_completion_event(); });
}

void CpuModel::on_completion_event() {
  completion_timer_ = Runtime::kInvalidTimer;
  advance();
  // One order-preserving compaction: finished tasks hand over their
  // callbacks (in TaskId order), survivors slide down over them.
  done_scratch_.clear();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    RunningTask& t = tasks_[i];
    if (t.remaining <= kWorkEpsilon) {
      done_scratch_.push_back(std::move(t.on_complete));
      total_weight_ -= t.weight;
    } else {
      if (kept != i) tasks_[kept] = std::move(t);
      ++kept;
    }
  }
  tasks_.resize(kept);
  if (total_weight_ < 0.0) total_weight_ = 0.0;
  if (observer_ && !done_scratch_.empty()) observer_(rt_.now(), total_weight_);
  recompute_and_schedule();
  // post() never runs a task inline, so nothing can re-enter this event
  // while the scratch vector is being drained.
  for (auto& cb : done_scratch_) {
    rt_.post(std::move(cb));
  }
}

CpuModel::TaskId CpuModel::submit(double work_seconds, double weight,
                                  Runtime::Task on_complete) {
  assert(work_seconds >= 0.0 && weight > 0.0);
  advance();
  TaskId id = next_id_++;
  RunningTask& t = tasks_.emplace_back();
  t.id = id;
  t.remaining = work_seconds;
  t.weight = weight;
  t.on_complete = std::move(on_complete);
  total_weight_ += weight;
  if (observer_) observer_(rt_.now(), total_weight_);
  recompute_and_schedule();
  return id;
}

bool CpuModel::cancel(TaskId id) {
  auto it = std::lower_bound(
      tasks_.begin(), tasks_.end(), id,
      [](const RunningTask& t, TaskId want) { return t.id < want; });
  if (it == tasks_.end() || it->id != id) return false;
  advance();
  total_weight_ -= it->weight;
  if (total_weight_ < 0.0) total_weight_ = 0.0;
  tasks_.erase(it);
  if (observer_) observer_(rt_.now(), total_weight_);
  recompute_and_schedule();
  return true;
}

}  // namespace ilu
