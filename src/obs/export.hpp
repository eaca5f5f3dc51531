#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "util/json.hpp"

/// Exporters for the metrics registry: JSON / CSV snapshots. (The flight
/// recorder's Chrome trace export is `flight::chrome_trace_json`.)
namespace ilu {

/// Metrics snapshot serialization.
JsonValue metrics_json(const MetricsSnapshot& snap);
void write_metrics_json(const MetricsSnapshot& snap, const std::string& path);
/// CSV rows: kind,name,field,value (log histograms add count/mean/min/max/
/// percentile rows).
void write_metrics_csv(const MetricsSnapshot& snap, const std::string& path);

}  // namespace ilu
