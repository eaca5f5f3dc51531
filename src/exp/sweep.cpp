#include "exp/sweep.hpp"
// ilu-lint: atomics-floor(relaxed) - each fetch_add hands out a distinct index and the join publishes the results; the done count only feeds the progress line

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

namespace ilu::exp {

namespace {

/// Wall-clock progress reporter: wakes every `interval`, reads the run's
/// done count, and prints one line to stderr with throughput and a
/// remaining-time estimate. Runs on its own thread and exits promptly when
/// destroyed.
class ProgressReporter {
 public:
  ProgressReporter(Duration interval, std::size_t total,
                   const std::atomic<std::size_t>& done)
      : interval_(interval), total_(total), done_(done),
        start_(std::chrono::steady_clock::now()),
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
    const std::size_t done = done_.load(std::memory_order_relaxed);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double rate = elapsed_s > 0.0 ? done / elapsed_s : 0.0;
    char line[160];
    if (done == 0 || rate <= 0.0) {
      std::snprintf(line, sizeof(line),
                    "[sweep] %zu/%zu cells, warming up (%.0fs elapsed)\n",
                    done, total_, elapsed_s);
    } else {
      const double eta_s = (total_ > done ? total_ - done : 0) / rate;
      std::snprintf(line, sizeof(line),
                    "[sweep] %zu/%zu cells, %.1f cells/s, ETA %.0fs\n", done,
                    total_, rate, eta_s);
    }
    std::cerr << line << std::flush;
  }

  Duration interval_;
  std::size_t total_;
  const std::atomic<std::size_t>& done_;
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
}

void SweepRunner::run_jobs(std::vector<std::function<void()>>&& jobs) {
  const std::size_t n = jobs.size();
  if (n == 0) return;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, n));

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto claim_loop = [&] {
    // Cooperative cancellation: re-checked before every claim, so the job
    // in flight finishes but no further one starts.
    while (!stop_requested()) {
      const std::size_t idx = next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= n) return;
      try {
        jobs[idx]();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      done.fetch_add(1, std::memory_order_relaxed);
    }
  };

  {
    std::unique_ptr<ProgressReporter> progress;
    if (opt_.progress_interval > Duration::zero()) {
      progress = std::make_unique<ProgressReporter>(opt_.progress_interval,
                                                    n, done);
    }
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) pool.emplace_back(claim_loop);
    claim_loop();
    for (auto& t : pool) t.join();
  }  // the reporter stops before the caller sees results or an error
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
