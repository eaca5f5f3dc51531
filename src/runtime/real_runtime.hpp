#pragma once
// ilu-lint: atomics-floor(relaxed) - executed_ is a monotone stats counter read after join

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "runtime/runtime.hpp"
#include "runtime/timer_wheel.hpp"

/// Wall-clock runtime: a single event-loop thread drives a hierarchical
/// timer wheel (`runtime/timer_wheel.hpp`, DESIGN.md §14) and executes
/// callbacks serially (preserving the Runtime contract), while any thread
/// may schedule work. This mirrors a single-threaded tokio executor: the
/// control plane itself is cheap (the paper reports <20% of one core
/// under full 48-core load), so one loop thread suffices and keeps the
/// callback code lock-free.
///
/// Hot-path shape (vs the former global mutex + priority_queue +
/// tombstone set):
///  - schedule() from the loop thread links straight into the wheel, no
///    lock at all; from any other thread it stages through one of eight
///    per-producer submission shards, so N load threads never convoy on a
///    single mutex.
///  - cancel() is an O(1) generation-checked CAS: cancel-after-fire
///    returns false (the old tombstone design returned true and leaked
///    the tombstone forever), and cancelled timers are reclaimed lazily,
///    keeping memory bounded by the in-flight window.
///  - the loop thread sleeps on a condvar only when truly idle; producers
///    wake it through a Dekker-style seq_cst handshake that costs them a
///    single atomic load when the loop is busy (the common case at load).
namespace ilu {

class RealRuntime final : public Runtime {
 public:
  RealRuntime();
  ~RealRuntime() override;

  RealRuntime(const RealRuntime&) = delete;
  RealRuntime& operator=(const RealRuntime&) = delete;

  /// Monotonic time since construction.
  TimePoint now() const override;

  TimerId schedule(Duration delay, Task fn) override;
  bool cancel(TimerId id) override;

  /// Block until no pending timers remain (used by tests/benches to join).
  void drain();

  /// Stop the loop thread; pending timers are dropped. Called by the dtor.
  void shutdown();

  /// Callbacks executed so far. Readable from any thread.
  std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Timers scheduled and not yet fired or cancelled. Any thread.
  std::uint64_t pending() const { return wheel_.live(); }

  /// The steady_clock instant that maps to now() == 0. Lets open-loop
  /// load generators convert trace offsets into absolute sleep_until
  /// targets on the same clock this runtime schedules against.
  std::chrono::steady_clock::time_point epoch_steady() const { return epoch_; }

 private:
  void loop();
  bool on_loop_thread() const {
    return std::this_thread::get_id() == loop_thread_.get_id();
  }
  std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(now().count());
  }

  const std::chrono::steady_clock::time_point epoch_;
  TimerWheel wheel_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  /// True while the loop thread is committed to (or inside) a condvar
  /// wait. seq_cst store/load pairs with TimerWheel::stage's seq_cst
  /// staged-push counter: either the sleeper's pre-wait check sees the
  /// push, or the producer sees sleeping_ == true and rings the condvar.
  std::atomic<bool> sleeping_{false};

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> executed_{0};
  std::mutex join_mu_;  // serializes concurrent shutdown() joins
  std::thread loop_thread_;
};

}  // namespace ilu
