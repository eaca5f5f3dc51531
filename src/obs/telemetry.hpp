#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
// ilu-lint: allow(include-layering) - timestamps come through the abstract Runtime clock so obs stays sim-deterministic; runtime/runtime.hpp is the interface header only (no scheduler), accepted inversion pending an obs-owned clock interface
#include "runtime/runtime.hpp"
#include "util/json.hpp"

/// Telemetry pipeline (DESIGN.md §12): a periodic sampler that snapshots
/// live instruments into time-series frames — warm-hit ratio, queue depth,
/// pool memory, events/s per shard — exported as CSV/JSON and rendered as a
/// live status line during long `RealRuntime` / `ShardedRuntime` runs.
///
/// The sampler is driven by the owning Runtime's timer queue, so under
/// virtual time the cadence is exact and deterministic, and under
/// wall-clock time it ticks on the loop thread.
/// Every probe reads relaxed atomics (or takes the registry's snapshot
/// mutex); sampling never mutates simulation state and never touches an
/// RNG, which is what keeps an `ExperimentReport` byte-identical with
/// telemetry on or off.
///
/// Cadence contract: the first frame is captured at start + cadence, then
/// every cadence thereafter until stop() or runtime drain; `sample_now()`
/// appends an extra frame outside the schedule (typically one final frame
/// at end of run). Frames are appended on the runtime's callback thread;
/// read them after the run (the sampler is not internally locked).
namespace ilu {

/// One sample: a named-scalar cut at a runtime timestamp. Keys are sorted
/// (std::map) so exports are deterministic.
struct TelemetryFrame {
  TimePoint ts{};
  std::map<std::string, double> values;
};

class TelemetrySampler {
 public:
  TelemetrySampler(Runtime& rt, Duration cadence);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  // ---- Source wiring (before start()) --------------------------------

  /// Sample every counter and gauge in `reg` each tick, keyed
  /// "<prefix><name>". Counters also emit "<prefix><name>:rate" — the
  /// per-second delta against the previous frame (0 in the first frame).
  /// Log-histograms emit "<prefix><name>:p50/:p99/:p999" tail cuts.
  void add_registry(std::string prefix, const MetricsRegistry* reg);

  /// Point sample (gauge semantics): the probe's value is stored as-is.
  void add_probe(std::string name, std::function<double()> fn);

  /// Cumulative sample (counter semantics): stores the raw value under
  /// `name` and the per-second delta under "name:rate".
  void add_counter_probe(std::string name,
                         std::function<std::uint64_t()> fn);

  /// Derived ratio "name" = frame[numer_key] / frame[denom_key] (0 when the
  /// denominator is 0). Computed after all probes, so both keys may come
  /// from any source in the same frame.
  void add_ratio(std::string name, std::string numer_key,
                 std::string denom_key);

  // ---- Lifecycle ------------------------------------------------------

  void start();
  void stop();
  /// Capture one frame immediately (outside the cadence schedule).
  void sample_now();

  /// Mirror each frame's status line to `out` as it is captured (live
  /// progress during wall-clock runs). nullptr (default) disables.
  void set_status_stream(std::ostream* out) { status_out_ = out; }

  // ---- Results --------------------------------------------------------

  Duration cadence() const { return cadence_; }
  const std::vector<TelemetryFrame>& frames() const { return frames_; }

  /// Compact one-line render of the most recent frame ("[t=12.0s] a=1 ...");
  /// "" when no frame has been captured yet.
  std::string status_line() const;

  /// {"cadence_us":..., "frames":[{"ts_us":..., "values":{...}}, ...]}
  JsonValue to_json() const;
  void write_json(const std::string& path) const;
  /// Wide CSV: ts_us plus one column per key (union across frames, sorted);
  /// frames missing a key write an empty cell.
  void write_csv(const std::string& path) const;

 private:
  void tick();
  void capture();

  Runtime& rt_;
  Duration cadence_;
  std::vector<std::pair<std::string, const MetricsRegistry*>> registries_;
  std::vector<std::pair<std::string, std::function<double()>>> probes_;
  std::vector<std::pair<std::string, std::function<std::uint64_t()>>>
      counter_probes_;
  struct Ratio {
    std::string name, numer, denom;
  };
  std::vector<Ratio> ratios_;
  std::vector<TelemetryFrame> frames_;
  /// Previous cumulative values, for rates (keyed like the frame).
  std::map<std::string, std::pair<TimePoint, double>> prev_cum_;
  std::ostream* status_out_ = nullptr;
  bool running_ = false;
  Runtime::TimerId timer_ = Runtime::kInvalidTimer;
};

}  // namespace ilu
