#include "obs/export.hpp"

#include <fstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace ilu {

JsonValue metrics_json(const MetricsSnapshot& snap) {
  JsonObject counters;
  for (const auto& [name, v] : snap.counters) counters[name] = JsonValue(v);
  JsonObject gauges;
  for (const auto& [name, v] : snap.gauges) {
    gauges[name] = JsonValue(static_cast<std::int64_t>(v));
  }
  JsonObject log_histograms;
  for (const auto& [name, h] : snap.log_histograms) {
    JsonObject hj;
    hj["count"] = JsonValue(h.count);
    hj["sum"] = JsonValue(h.sum);
    hj["mean"] = JsonValue(h.mean);
    hj["min"] = JsonValue(h.min);
    hj["max"] = JsonValue(h.max);
    hj["p50"] = JsonValue(h.p50);
    hj["p90"] = JsonValue(h.p90);
    hj["p99"] = JsonValue(h.p99);
    hj["p999"] = JsonValue(h.p999);
    hj["saturated"] = JsonValue(h.saturated);
    hj["overflow_count"] = JsonValue(h.overflow_count);
    log_histograms[name] = JsonValue(std::move(hj));
  }
  JsonObject doc;
  doc["counters"] = JsonValue(std::move(counters));
  doc["gauges"] = JsonValue(std::move(gauges));
  doc["log_histograms"] = JsonValue(std::move(log_histograms));
  return JsonValue(std::move(doc));
}

void write_metrics_json(const MetricsSnapshot& snap, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << metrics_json(snap).dump(2) << "\n";
}

void write_metrics_csv(const MetricsSnapshot& snap, const std::string& path) {
  CsvWriter w(path);
  w.row("kind", "name", "field", "value");
  for (const auto& [name, v] : snap.counters) {
    w.row("counter", name, "value", v);
  }
  for (const auto& [name, v] : snap.gauges) {
    w.row("gauge", name, "value", v);
  }
  for (const auto& [name, h] : snap.log_histograms) {
    w.row("log_histogram", name, "count", h.count);
    w.row("log_histogram", name, "mean", h.mean);
    w.row("log_histogram", name, "min", h.min);
    w.row("log_histogram", name, "max", h.max);
    w.row("log_histogram", name, "p50", h.p50);
    w.row("log_histogram", name, "p90", h.p90);
    w.row("log_histogram", name, "p99", h.p99);
    w.row("log_histogram", name, "p999", h.p999);
    w.row("log_histogram", name, "saturated", h.saturated ? 1 : 0);
  }
}

}  // namespace ilu
