#pragma once

#include <cstdint>

#include "runtime/task.hpp"
#include "util/time.hpp"

/// Execution runtime abstraction (the paper's tokio stand-in).
///
/// All control-plane logic is written in continuation-passing style against
/// this interface, which provides the paper's headline in-situ simulation
/// property: the *same* worker code runs under the deterministic virtual-time
/// SimRuntime (for trace-scale experiments) and the wall-clock RealRuntime
/// (for microbenchmarks) — only the clock and the timer implementation
/// differ.
///
/// Contract: callbacks are executed one at a time (event-loop semantics), in
/// non-decreasing time order, with FIFO order among equal deadlines. Code
/// running inside a callback therefore never needs locks to protect state
/// shared only among callbacks.
namespace ilu {

class Runtime {
 public:
  /// Move-only small-buffer-optimized callable (see runtime/task.hpp):
  /// captures up to 56 B schedule without any heap allocation.
  using Task = ilu::Task;
  /// Identifies a scheduled timer; usable with cancel().
  using TimerId = std::uint64_t;
  static constexpr TimerId kInvalidTimer = 0;

  virtual ~Runtime() = default;

  /// Current time since the runtime epoch.
  virtual TimePoint now() const = 0;

  /// Run `fn` after `delay` (>= 0). Returns a cancellable id.
  virtual TimerId schedule(Duration delay, Task fn) = 0;

  /// Cancel a pending timer. Returns true if it had not fired yet.
  virtual bool cancel(TimerId id) = 0;

  /// Run `fn` as soon as possible (after currently queued tasks).
  TimerId post(Task fn) { return schedule(Duration::zero(), std::move(fn)); }
};

}  // namespace ilu
