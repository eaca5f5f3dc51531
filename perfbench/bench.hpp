#pragma once

#include <sched.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

/// Shared pieces of the benchmark: options, the result record, an exact
/// latency histogram, wall/CPU/RSS probes and the span log of traced runs.
/// Everything here is the benchmark's own; the program under test is only
/// reached through the workload files.
namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seconds-scale inputs for the self-tests.
  bool smoke = false;
  /// Directory for span dumps (run.py creates it).
  std::string out_dir = ".";
};

/// One metric line of the final JSON object.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the check verdict, the counts and
/// the metrics of the requested kind (end-to-end, or per-layer when traced).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed output check: it is printed and fails the run.
  void check(bool ok, const std::string& what) {
    std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) correct = false;
  }
};

Result run_live(const Options& opt);
Result run_azure(const Options& opt, std::size_t shards);
Result run_sweep(const Options& opt);

// ---------------------------------------------------------------------------
// Clocks and process probes.

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(wall_ns() - start_ns) / 1e9;
}
/// CPU time of the whole process, all threads.
double process_cpu_s();
/// CPU time of the calling thread.
double thread_cpu_s();
/// Peak resident set size of this process so far.
double peak_rss_mb();

double median(std::vector<double> v);

/// The q-quantile of `v` (linear interpolation between order statistics).
double quantile(std::vector<double> v, double q);

/// Timing metrics of the in-silico workloads take the fast decile over a
/// run's repetitions: the 10th percentile of a time or cost, the 90th of a
/// throughput. On a shared host, repetitions of one azure_cluster run read
/// ~1.05 s or ~1.5 s, in stretches of several, so the share of slow
/// repetitions in a run, and with it the run's median or quartile, is luck.
/// Over two five-seed sets of three workloads the median spread 0.06-0.17,
/// the better quartile 0.05-0.17 and the fast decile 0.04-0.12 (see
/// README.md).
inline double fast_cost(const std::vector<double>& v) { return quantile(v, 0.10); }
inline double fast_rate(const std::vector<double>& v) { return quantile(v, 0.90); }

/// Nearest-rank percentile of `v` (q in (0, 1]); 0 when empty. Failed work
/// enters as +inf, so a rank that falls on it reads +inf.
double nearest_rank(std::vector<double> v, double q);

/// Pins the calling thread to `count` consecutive CPUs of those it may run
/// on, starting at the one chosen by `slot` in rotation, and restores its
/// affinity when destroyed. On a shared host the CPUs run at visibly
/// different speeds (one replay took 1.2 s pinned to one CPU and 1.7 s
/// pinned to another), so a repetition is timed on known CPUs, and
/// repetitions rotate over all of them; the result then does not depend on
/// where the scheduler happened to put the process. Threads created while
/// pinned (shard threads, sweep threads) inherit the pin.
class PinnedCpu {
 public:
  explicit PinnedCpu(std::size_t slot, std::size_t count = 1);
  ~PinnedCpu();
  PinnedCpu(const PinnedCpu&) = delete;
  PinnedCpu& operator=(const PinnedCpu&) = delete;

 private:
  cpu_set_t saved_{};  // the thread's affinity before pinning
  bool pinned_ = false;
};

/// A share printed with its base: "(num + 1) / (den + 1)". The add-one keeps
/// a share that is truly zero (no cold start, no failure) strictly positive,
/// so a later run with one cold start or failure reads as a rise, not as a
/// division by zero.
double smoothed_share(std::uint64_t num, std::uint64_t den);
void print_ratio(const char* name, double value, double num, double den,
                 const char* base);

// ---------------------------------------------------------------------------

/// Latency histogram over whole microseconds: exact below 2048 µs, and within
/// 1/1024 relative above (HDR-style octaves of 1024 sub-buckets). Bounded
/// memory (~0.5 MB) however many samples it holds. Invocations that failed or
/// never finished are added with add_missing() and rank above every finite
/// sample, so they count as missing any latency limit.
class LatencyHistogram {
 public:
  void add_us(std::int64_t us) {
    ++buckets_[index_of(us < 0 ? 0 : static_cast<std::uint64_t>(us))];
    ++finite_;
  }
  void add_missing(std::uint64_t n = 1) { missing_ += n; }
  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
    finite_ += o.finite_;
    missing_ += o.missing_;
  }
  std::uint64_t count() const { return finite_ + missing_; }

  /// Nearest-rank percentile in ms (q in (0, 1]); +inf when the rank falls
  /// on a failed or unfinished invocation; 0 when empty.
  double percentile_ms(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
    if (rank < 1) rank = 1;
    if (rank > finite_) return std::numeric_limits<double>::infinity();
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) return static_cast<double>(value_of(i)) / 1000.0;
    }
    return std::numeric_limits<double>::infinity();
  }

  static constexpr std::uint64_t kLinear = 2048;
  static constexpr std::uint64_t kSub = 1024;
  static std::size_t index_of(std::uint64_t us) {
    if (us < kLinear) return static_cast<std::size_t>(us);
    const int e = std::bit_width(us) - 11;  // >= 1; us >> e is in [1024, 2048)
    return static_cast<std::size_t>(kLinear + (e - 1) * kSub + ((us >> e) - kSub));
  }
  /// Midpoint of the bucket's µs range (exact in the linear range).
  static std::uint64_t value_of(std::size_t idx) {
    if (idx < kLinear) return idx;
    const std::uint64_t e = (idx - kLinear) / kSub + 1;
    const std::uint64_t m = (idx - kLinear) % kSub + kSub;
    return (m << e) + ((std::uint64_t{1} << e) >> 1);
  }

 private:
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(kLinear + 54 * kSub, 0);
  std::uint64_t finite_ = 0;
  std::uint64_t missing_ = 0;
};

// ---------------------------------------------------------------------------

/// In-memory span log of a traced run. Each span has a name, wall start and
/// end, a parent (an index into the same log, or -1) and the id of the
/// invocation it belongs to (kNoInv for spans that are not per invocation).
/// One log is written by one thread at a time; logs of several threads are
/// joined by SpanLog::merge before analysis. Storage is reserved up front so
/// recording never reallocates in the middle of a measurement.
class SpanLog {
 public:
  static constexpr std::uint64_t kNoInv = std::numeric_limits<std::uint64_t>::max();
  struct Span {
    std::string_view name;  // always a string literal
    std::uint64_t inv = kNoInv;
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit SpanLog(std::size_t reserve = 0) { spans_.reserve(reserve); }

  /// Open a span whose parent is the innermost span still open in this log.
  std::int64_t begin(std::string_view name, std::uint64_t inv = kNoInv) {
    const std::int64_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, inv, parent, wall_ns(), 0});
    open_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return open_.back();
  }
  void end(std::int64_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = wall_ns();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  /// Record a finished span with explicit times and parent.
  std::int64_t add(std::string_view name, std::uint64_t inv,
                   std::int64_t parent, std::int64_t start_ns,
                   std::int64_t end_ns) {
    spans_.push_back({name, inv, parent, start_ns, end_ns});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Append `o`'s spans, shifting their parent indices; returns the offset
  /// at which they start.
  std::int64_t merge(const SpanLog& o);

  /// Per-name totals: count, summed duration and summed self time (duration
  /// minus the durations of the span's direct children).
  struct NameTotals {
    std::string_view name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<NameTotals> totals() const;
  /// Mean duration in ns of the spans called `name`; 0 when there are none.
  double mean_ns(std::string_view name) const;
  void print_totals(const char* title) const;
  /// Write the spans as tab-separated lines (id, name, inv, parent,
  /// start_ns, end_ns), at most kDumpLimit of them so a traced live run's
  /// dump stays near 25 MB (the printed totals cover every span). Returns
  /// false when the file cannot be written.
  static constexpr std::size_t kDumpLimit = 500'000;
  bool write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span on a log that may be null (untraced pass: records nothing).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name,
             std::uint64_t inv = SpanLog::kNoInv)
      : log_(log), id_(log ? log->begin(name, inv) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int64_t id_;
};

/// Simple seeded generator for the benchmark's own inputs (splitmix64), so
/// the inputs do not depend on the program's RNG code.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// The worker span-tracer toggle, written so the benchmark still compiles
/// once WorkerConfig::tracing no longer exists (then it does nothing).
template <class Config>
void set_span_tracer(Config& cfg, bool on) {
  if constexpr (requires { cfg.tracing = on; }) cfg.tracing = on;
}

/// FNV-1a over a string: the fingerprint that report-identity checks compare.
inline std::uint64_t fingerprint(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
