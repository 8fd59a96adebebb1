#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs{
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"items_per_s", "1/s"},
      {"step_ms_p50", "ms"},
      {"step_ms_p90", "ms"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs{
      // Simulator: sim::Scheduler / sim::Workload wrappers, per pass.
      {"sched.place.calls", "count"},
      {"sched.place.ns", "ns"},
      {"sched.acquire.calls", "count"},
      {"sched.acquire.ns", "ns"},
      {"sched.acquire.hit_ratio", "ratio"},
      {"sched.snatch.calls", "count"},
      {"sched.snatch.ns", "ns"},
      {"sched.snatch.hit_ratio", "ratio"},
      {"sched.complete.calls", "count"},
      {"sched.complete.ns", "ns"},
      {"workload.complete.ns", "ns"},
      {"engine.run.ns", "ns"},
      {"engine.self_ns_per_event", "ns"},
      {"engine.sched_share", "ratio"},
      {"sim.events", "count"},
      {"sim.makespan_vt", "vt"},
      {"plan.published", "count"},
      {"plan.skipped", "count"},
      {"plan.repairs", "count"},
      {"plan.fallbacks", "count"},
      // Real-thread runtime, per 2000-task batch.
      {"rt.spawn.ns", "ns"},
      {"rt.queue_wait_us_p50", "us"},
      {"rt.queue_wait_us_p90", "us"},
      {"rt.batch_ms_p99", "ms"},
      {"rt.steal_ratio", "ratio"},
      {"rt.cross_cluster_ratio", "ratio"},
      {"rt.failed_acquire_rounds", "count/batch"},
      {"rt.wakeups_issued", "count/batch"},
      {"rt.spurious_wakeup_ratio", "ratio"},
      {"rt.plans_published", "count/batch"},
      {"rt.plans_skipped", "count/batch"},
      // Serving layer, per pass over the grid.
      {"serve.lease.calls", "count"},
      {"serve.lease.ns", "ns"},
      {"serve.rest_ns_per_event", "ns"},
      {"serve.lease.churn", "count"},
      {"serve.lease.publish_ratio", "ratio"},
      {"serve.rejected_ratio", "ratio"},
      {"serve.latency_vt_p50", "vt"},
      {"serve.latency_vt_p99", "vt"},
      {"serve.goodput", "jobs/kvt"},
      // The tracing itself.
      {"trace.overhead_ratio", "ratio"},
      {"trace.spans", "count"},
  };
  return defs;
}

void RunResult::fail(const std::string& message) {
  correct = false;
  if (errors.size() < 20) errors.push_back(message);
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void print_result(const std::string& workload, const RunResult& result,
                  bool trace) {
  for (const auto& line : result.notes) std::printf("%s\n", line.c_str());
  for (const auto& error : result.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  const auto& catalog = trace ? per_layer_metrics() : end_to_end_metrics();
  std::printf("%s (%s):\n", workload.c_str(),
              trace ? "per-layer, traced" : "end-to-end");
  std::string metrics;
  for (const MetricDef& def : catalog) {
    const auto it = result.metrics.find(def.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    std::printf("  %-28s %16.6g %s\n", def.name, value, def.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(def.name) + ": {\"value\": " + number(value) +
               ", \"unit\": " + quoted(def.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
