// Metric catalog, result record and small statistics helpers shared by
// every workload of the benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: printed (with tracing off) for every workload.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics: printed (with tracing on) for every workload; a layer
/// the workload never calls reports 0.
const std::vector<MetricDef>& per_layer_metrics();

/// What one workload run produced.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  ///< by catalog name
  std::vector<std::string> errors;        ///< failed output checks
  std::vector<std::string> notes;         ///< human-readable report lines

  /// Record a failed output check (keeps the first few messages).
  void fail(const std::string& message);
};

/// Exact nearest-rank quantile (p in [0, 1]); 0 for an empty input.
double quantile(std::vector<double> values, double p);
double median(std::vector<double> values);
/// Geometric mean of positive values; 0 for an empty input.
double geomean(const std::vector<double>& values);
/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// Print the report lines and the final one-line JSON object. `trace`
/// selects the per-layer catalog instead of the end-to-end one; catalog
/// metrics absent from `result` are printed as 0.
void print_result(const std::string& workload, const RunResult& result,
                  bool trace);

}  // namespace perfbench
