// The benchmark's workloads. Each one makes its inputs from the seed,
// times its set-up, measures for the requested time, checks its outputs
// and fills a RunResult with the end-to-end metrics (tracing off) or the
// per-layer metrics (tracing on).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

/// The seed the registry scenarios use: at this seed every sim and serving
/// cell reproduces the registry's own results.
inline constexpr std::uint64_t kDefaultSeed = 42;

struct RunOptions {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_path;
};

RunResult run_sim_at_scale(const RunOptions& options);
RunResult run_sim_paper(const RunOptions& options);
RunResult run_rt_tiny_tasks(const RunOptions& options);
RunResult run_serve_grid(const RunOptions& options);

/// Transparency checks on small registry cells: the traced sim composition
/// must reproduce run_scenario bit for bit, and a run_serving call with the
/// lease observer attached must match one without. Each returns false and
/// prints the mismatches otherwise.
bool selftest_sim_wrappers();
bool selftest_serve_observer();

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace perfbench
