#pragma once
// ilu-lint: atomics-floor(relaxed) - stop_requested_ is a best-effort cancellation hint polled between cells

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/time.hpp"

/// Parallel experiment sweep engine.
///
/// The paper's trace-scale evaluation (Figs 4/5, the ablations) is a grid of
/// *independent, deterministic* simulations — each task builds its own
/// SimRuntime + ContainerPool (a trace replay) or Worker from an explicit
/// seed and shares nothing mutable with its siblings. SweepRunner fans such
/// grids across hardware threads with one claim loop — every thread, the
/// caller included, takes the next submission index from a shared counter —
/// while preserving the sequential path's observable behaviour exactly:
///
///  * **Determinism contract** — results land in a vector indexed by
///    submission order, so for the same task list and seeds the returned
///    rows are byte-identical at 1, 4, or N threads (and identical to a
///    plain sequential loop). Tasks must not read shared mutable state;
///    immutable inputs (a const Trace&) may be shared freely.
///  * **Shared state** — the claim counter and the progress count are the
///    engine's only shared state; tasks build their own runtimes, registries
///    and Workers.
namespace ilu::exp {

struct SweepOptions {
  /// Thread count, the caller included; 0 means
  /// std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// Print a progress line (cells done, cells/s, ETA) to stderr this often
  /// while a grid runs; zero disables.
  Duration progress_interval{};
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opt = {});

  /// The resolved thread count (>= 1).
  unsigned threads() const { return threads_; }

  /// Run all jobs (blocking). Each thread claims the next unclaimed index
  /// until none is left, so an imbalanced grid (one slow cell) keeps every
  /// core busy; with one thread the loop runs on the caller. The first
  /// exception thrown by a job is rethrown here after all threads join. If
  /// `request_stop` fires mid-run, in-flight jobs finish but no further
  /// jobs start.
  void run_jobs(std::vector<std::function<void()>>&& jobs);

  /// Cooperative cancellation: no further jobs are claimed after this is
  /// called; jobs already running complete normally. Sticky for the
  /// lifetime of the runner, and async-signal-safe (a lock-free atomic
  /// store), so SIGINT handlers may call it directly — the fig4
  /// driver does, to print partial grids instead of dying mid-sweep.
  void request_stop() noexcept {
    stop_requested_.store(true, std::memory_order_relaxed);
  }
  bool stop_requested() const noexcept {
    return stop_requested_.load(std::memory_order_relaxed);
  }

  /// Typed wrapper that tolerates cancellation: runs every task, returns
  /// slots in submission order; cells skipped because of `request_stop`
  /// come back empty.
  template <typename R>
  std::vector<std::optional<R>> run_partial(
      const std::vector<std::function<R()>>& tasks) {
    std::vector<std::optional<R>> slots(tasks.size());
    std::vector<std::function<void()>> jobs;
    jobs.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      jobs.emplace_back([&slots, &tasks, i] { slots[i].emplace(tasks[i]()); });
    }
    run_jobs(std::move(jobs));
    return slots;
  }

  /// Typed convenience wrapper: runs every task, returns results in
  /// submission order. Throws if the sweep was cancelled before every cell
  /// completed — callers that want the completed prefix use run_partial.
  template <typename R>
  std::vector<R> run(const std::vector<std::function<R()>>& tasks) {
    std::vector<std::optional<R>> slots = run_partial(tasks);
    std::vector<R> out;
    out.reserve(slots.size());
    for (auto& s : slots) {
      if (!s) {
        throw std::runtime_error(
            "sweep cancelled before all cells completed; use run_partial() "
            "for the finished subset");
      }
      out.push_back(std::move(*s));
    }
    return out;
  }

 private:
  SweepOptions opt_;
  unsigned threads_ = 1;
  std::atomic<bool> stop_requested_{false};
};

/// Strip a `--threads N` flag from argv (any position) and return N; when
/// absent, consult the ILU_THREADS environment variable; when neither is
/// set, return `fallback` (0 = hardware concurrency). Used by every sweep
/// bench so `fig4_exec_increase --threads 8` just works. argv must carry
/// main()'s nullptr terminator at argv[argc]; it is preserved when the
/// flag is stripped.
unsigned threads_from_args(int& argc, char** argv, unsigned fallback = 0);

}  // namespace ilu::exp
