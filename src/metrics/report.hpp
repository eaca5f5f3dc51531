#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

/// Experiment reporting: aggregate InvokeResults into per-function and
/// global statistics (the analysis layer of the paper's load-generation
/// framework — "a single platform for FaaS experimentation" needs its
/// results digested the same way every time).
namespace ilu {

struct FunctionReport {
  std::string name;
  std::uint64_t invocations = 0;
  std::uint64_t warm = 0;
  std::uint64_t cold = 0;
  std::uint64_t dropped = 0;
  std::uint64_t failed = 0;
  Summary flow_ms;
  Summary overhead_ms;
  Summary exec_ms;
  double stretch_sum = 0.0;

  double warm_ratio() const {
    return warm + cold ? static_cast<double>(warm) /
                             static_cast<double>(warm + cold)
                       : 0.0;
  }
  double mean_stretch() const {
    std::uint64_t n = warm + cold;
    return n ? stretch_sum / static_cast<double>(n) : 0.0;
  }
};

class ExperimentReport {
 public:
  /// `names` labels per-function rows (index = FunctionId); unknown ids get
  /// generated labels.
  explicit ExperimentReport(std::vector<std::string> names = {});

  void add(const InvokeResult& r);
  void add_all(const std::vector<InvokeResult>& results);

  // ilu-lint: allow(test-only-api) - test hook over the all-functions row every format prints
  const FunctionReport& global() const { return global_; }
  /// Per-function rows in FunctionId order (only ids seen).
  std::vector<const FunctionReport*> functions() const;
  const FunctionReport* function(FunctionId fn) const;

  /// Human-readable table.
  std::string format() const;

  /// CSV rows: one per function plus a TOTAL row.
  void write_csv(const std::string& path) const;

  /// Structured form: {"functions": [...], "total": {...}} with the same
  /// columns as the CSV, for machine consumption alongside metric snapshots.
  JsonValue to_json() const;
  void write_json(const std::string& path) const;

 private:
  FunctionReport& row(FunctionId fn);
  static void accumulate(FunctionReport& fr, const InvokeResult& r);

  std::vector<std::string> names_;
  std::map<FunctionId, FunctionReport> per_fn_;
  FunctionReport global_;
};

}  // namespace ilu
