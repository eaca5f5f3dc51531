// perfbench: the repository's end-to-end benchmark program. It runs one
// named workload from a seed, checks the program's outputs, and prints the
// metrics as the last line of stdout:
//
//   RESULT {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//             [--smoke]
//   perfbench --selftest
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
// untraced and once with spans around the benchmark's calls into each layer,
// runs the costlier output checks, prints the per-layer metrics and writes
// the spans to DIR. --smoke shrinks every workload to seconds (self-tests).
// perfbench/run.py builds this program and drives it; see README.md there.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

PinnedCpu::PinnedCpu(std::size_t slot, std::size_t count) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t k = 0; k < std::min(count, cpus.size()); ++k) {
    CPU_SET(cpus[(slot + k) % cpus.size()], &set);
  }
  pinned_ = sched_setaffinity(0, sizeof(set), &set) == 0;
}

PinnedCpu::~PinnedCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double smoothed_share(std::uint64_t num, std::uint64_t den) {
  return (static_cast<double>(num) + 1.0) / (static_cast<double>(den) + 1.0);
}

void print_ratio(const char* name, double value, double num, double den,
                 const char* base) {
  std::printf("ratio %-30s %.6g  base: %.6g / %.6g  (%s)\n", name, value, num,
              den, base);
}

std::int64_t SpanLog::merge(const SpanLog& o) {
  const auto offset = static_cast<std::int64_t>(spans_.size());
  spans_.reserve(spans_.size() + o.spans_.size());
  for (Span s : o.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
  return offset;
}

std::vector<SpanLog::NameTotals> SpanLog::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string_view, NameTotals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    NameTotals& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_s += dur / 1e9;
    t.self_s += std::max(0.0, dur - child_ns[i]) / 1e9;
  }
  std::vector<NameTotals> out;
  for (auto& [_, t] : by_name) out.push_back(t);
  return out;
}

double SpanLog::mean_ns(std::string_view name) const {
  std::int64_t total_ns = 0;
  std::uint64_t count = 0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    total_ns += s.end_ns - s.start_ns;
    ++count;
  }
  return count ? static_cast<double>(total_ns) / static_cast<double>(count) : 0.0;
}

void SpanLog::print_totals(const char* title) const {
  std::printf("spans (%s): %zu recorded\n", title, spans_.size());
  std::printf("  %-30s %10s %12s %12s %12s\n", "span", "count", "total ms",
              "self ms", "self ns/each");
  for (const NameTotals& t : totals()) {
    std::printf("  %-30.*s %10llu %12.3f %12.3f %12.1f\n",
                static_cast<int>(t.name.size()), t.name.data(),
                static_cast<unsigned long long>(t.count), t.total_s * 1e3,
                t.self_s * 1e3,
                t.count ? t.self_s * 1e9 / static_cast<double>(t.count) : 0.0);
  }
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tname\tinv\tparent\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < std::min(spans_.size(), kDumpLimit); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.name << '\t';
    if (s.inv == kNoInv) {
      out << '-';
    } else {
      out << s.inv;
    }
    out << '\t' << s.parent << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

namespace {

int selftest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("selftest %-60s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };

  LatencyHistogram h;
  for (int i = 1; i <= 98; ++i) h.add_us(i * 10);
  h.add_missing(2);
  expect(h.count() == 100, "histogram counts finite and missing samples");
  expect(h.percentile_ms(0.50) == 0.5, "p50 is the exact nearest-rank sample");
  expect(h.percentile_ms(0.98) == 0.98, "p98 is the last finite sample");
  expect(std::isinf(h.percentile_ms(0.99)),
         "p99 ranks the failed/unfinished invocations above every sample");
  LatencyHistogram big;
  big.add_us(3'456'789);
  const double got = big.percentile_ms(1.0);
  expect(std::abs(got - 3456.789) / 3456.789 < 1.0 / 1024,
         "samples above 2048 us are within 1/1024 relative");
  LatencyHistogram empty;
  expect(empty.percentile_ms(0.99) == 0.0, "an empty histogram reads 0");
  for (std::uint64_t us : {0ull, 2047ull, 2048ull, 4095ull, 4096ull,
                           1ull << 40, (1ull << 62) + 12345}) {
    const std::size_t idx = LatencyHistogram::index_of(us);
    const std::uint64_t mid = LatencyHistogram::value_of(idx);
    const double err =
        us ? std::abs(static_cast<double>(mid) - static_cast<double>(us)) /
                 static_cast<double>(us)
           : static_cast<double>(mid);
    if (err > 1.0 / 1024) {
      std::printf("  bucket of %llu reads %llu\n",
                  static_cast<unsigned long long>(us),
                  static_cast<unsigned long long>(mid));
      expect(false, "bucket midpoint within 1/1024 of the sample");
    }
  }
  expect(smoothed_share(0, 99) == 0.01, "a zero share reads 1 / (base + 1)");
  expect(quantile({5, 1, 4, 2, 3}, 0.25) == 2.0 &&
             quantile({4, 1, 3, 2}, 0.75) == 3.25,
         "quartiles interpolate between order statistics");
  const double inf = std::numeric_limits<double>::infinity();
  expect(nearest_rank({3, 1, 2, 4}, 0.5) == 2.0 &&
             nearest_rank({3, 1, 2, 4}, 0.75) == 3.0 &&
             std::isinf(nearest_rank({1, 2, 3, inf}, 0.99)),
         "nearest rank ranks failed work (+inf) above every sample");

  SpanLog log(8);
  const auto root = log.begin("root");
  const auto child = log.begin("child", 7);
  log.end(child);
  log.end(root);
  log.spans()[0].start_ns = 0;
  log.spans()[0].end_ns = 100;
  log.spans()[1].start_ns = 10;
  log.spans()[1].end_ns = 40;
  const auto t = log.totals();
  const bool self_ok = t.size() == 2 && t[0].name == "child" &&
                       t[0].self_s == 30e-9 && t[1].name == "root" &&
                       t[1].self_s == 70e-9 && log.spans()[1].parent == root &&
                       log.spans()[1].inv == 7;
  expect(self_ok, "self time is the span minus its child spans");
  expect(log.mean_ns("child") == 30.0 && log.mean_ns("none") == 0.0,
         "per-call ns is the mean span duration");
  std::printf("selftest %s\n", failures ? "FAILED" : "passed");
  return failures ? 1 : 0;
}

void print_result(const Result& r) {
  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // A percentile that lands on a failed invocation is infinite; JSON has
    // no infinity, so it is written as 1e12 (and the run is not correct).
    const double v = std::isfinite(m.value) ? m.value : 1e12;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") return selftest();
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) != "0";
    } else if (a == "--out" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  Result r;
  try {
    if (opt.workload == "live_2m") {
      r = run_live(opt);
    } else if (opt.workload == "azure_cluster") {
      r = run_azure(opt, 0);
    } else if (opt.workload == "azure_cluster_sharded") {
      r = run_azure(opt, 2);
    } else if (opt.workload == "keepalive_sweep") {
      r = run_sweep(opt);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  bool finite = true;
  for (const Metric& m : r.metrics) {
    std::printf("metric %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    finite = finite && std::isfinite(m.value);
  }
  r.check(finite, "every metric is finite");
  std::fflush(stdout);
  print_result(r);
  return r.correct ? 0 : 1;
}
