#include "exp/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/log.hpp"

namespace ilu::exp {

namespace {

/// One worker's job queue: owner pops from the front, thieves steal from
/// the back. A plain mutex per deque is ample here — sweep tasks are whole
/// simulations (milliseconds to minutes), so queue traffic is negligible.
struct WorkDeque {
  std::mutex mu;
  std::deque<std::size_t> jobs;

  bool pop_front(std::size_t& out) {
    std::lock_guard<std::mutex> lock(mu);
    if (jobs.empty()) return false;
    out = jobs.front();
    jobs.pop_front();
    return true;
  }
  bool steal_back(std::size_t& out) {
    std::lock_guard<std::mutex> lock(mu);
    if (jobs.empty()) return false;
    out = jobs.back();
    jobs.pop_back();
    return true;
  }
};

/// RAII capture of one task's log output: installs a thread-local string
/// sink on construction and — even during exception unwinding — restores
/// the previous sink and stores the captured text on destruction, so a
/// throwing job can never leave the thread pointing at a dead sink.
struct ScopedLogCapture {
  std::ostringstream os;
  std::ostream* prev;
  std::string& out;

  explicit ScopedLogCapture(std::string& o)
      : prev(set_thread_log_sink(&os)), out(o) {}
  ~ScopedLogCapture() {
    set_thread_log_sink(prev);
    out = os.str();
  }
};

/// Wall-clock progress reporter: wakes every `interval`, reads the sweep
/// counters, and prints one line with throughput and a remaining-time
/// estimate. Runs on its own thread with the *real* log sink (never a
/// task's capture buffer), and exits promptly when notified.
class ProgressReporter {
 public:
  ProgressReporter(Duration interval, std::ostream& out, std::size_t total,
                   const Counter& done, std::uint64_t base)
      : interval_(interval), out_(out), total_(total), done_(done),
        base_(base), start_(std::chrono::steady_clock::now()),
        thread_([this] { loop(); }) {}

  ~ProgressReporter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::microseconds(interval_.count()),
                         [this] { return stop_; })) {
      report();
    }
  }

  void report() {
    const std::uint64_t done = done_.value() - base_;
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double rate = elapsed_s > 0.0 ? done / elapsed_s : 0.0;
    char line[160];
    if (done == 0 || rate <= 0.0) {
      std::snprintf(line, sizeof(line),
                    "[sweep] %llu/%zu cells, warming up (%.0fs elapsed)\n",
                    static_cast<unsigned long long>(done), total_, elapsed_s);
    } else {
      const double eta_s = (total_ > done ? total_ - done : 0) / rate;
      std::snprintf(line, sizeof(line),
                    "[sweep] %llu/%zu cells, %.1f cells/s, ETA %.0fs\n",
                    static_cast<unsigned long long>(done), total_, rate,
                    eta_s);
    }
    out_ << line << std::flush;
  }

  Duration interval_;
  std::ostream& out_;
  std::size_t total_;
  const Counter& done_;
  std::uint64_t base_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

SweepRunner::SweepRunner(SweepOptions opt) : opt_(opt) {
  threads_ = opt_.threads != 0 ? opt_.threads
                               : std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;
  cells_done_ = metrics_.counter("sweep.cells_done");
  cells_total_ = metrics_.gauge("sweep.cells_total");
}

void SweepRunner::run_jobs(std::vector<std::function<void()>>&& jobs) {
  const std::size_t n = jobs.size();
  if (n == 0) return;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, n));

  cells_total_->set(static_cast<std::int64_t>(n));
  std::unique_ptr<ProgressReporter> progress;
  if (opt_.progress_interval > Duration::zero()) {
    progress = std::make_unique<ProgressReporter>(
        opt_.progress_interval,
        opt_.progress_out ? *opt_.progress_out : std::cerr, n, *cells_done_,
        cells_done_->value());
  }

  // Per-task captured log text, flushed in submission order afterwards.
  std::vector<std::string> captured(opt_.capture_logs ? n : 0);

  auto run_one = [&](std::size_t idx) {
    if (opt_.capture_logs) {
      ScopedLogCapture capture(captured[idx]);
      jobs[idx]();
    } else {
      jobs[idx]();
    }
  };

  std::exception_ptr first_error;
  std::mutex error_mu;
  auto guarded = [&](std::size_t idx) {
    try {
      run_one(idx);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
    cells_done_->inc();
  };

  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      if (stop_requested()) break;
      guarded(i);
    }
  } else {
    // Round-robin initial distribution; idle workers steal from the back of
    // their siblings' deques.
    std::vector<WorkDeque> deques(workers);
    for (std::size_t i = 0; i < n; ++i) {
      deques[i % workers].jobs.push_back(i);
    }

    auto worker_loop = [&](unsigned me) {
      std::size_t idx;
      for (;;) {
        // Cooperative cancellation: stop claiming; the job in flight (if
        // any) already finished by the time we re-check here.
        if (stop_requested()) return;
        if (deques[me].pop_front(idx)) {
          guarded(idx);
          continue;
        }
        bool stole = false;
        for (unsigned k = 1; k < workers; ++k) {
          if (deques[(me + k) % workers].steal_back(idx)) {
            guarded(idx);
            stole = true;
            break;
          }
        }
        // All jobs are distributed up-front and never re-enqueued, so once
        // every deque is empty no work can appear: exit instead of spinning
        // while siblings finish their last jobs (join waits for those).
        if (!stole) return;
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back(worker_loop, w);
    }
    for (auto& t : pool) t.join();
  }

  progress.reset();  // final stop before logs flush, so lines don't mix
  if (opt_.capture_logs) {
    for (const auto& text : captured) log_write_raw(text);
  }
  if (first_error) std::rethrow_exception(first_error);
}

unsigned threads_from_args(int& argc, char** argv, unsigned fallback) {
  unsigned value = fallback;
  if (const char* env = std::getenv("ILU_THREADS")) {
    value = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      value = static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
      // Strip the flag and its argument so positional parsing is unaffected;
      // shift includes argv[argc] to keep the required nullptr terminator.
      for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  return value;
}

}  // namespace ilu::exp
