// wats_bench: one workload of the WATS benchmark per invocation.
//
//   wats_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//              [--trace-out FILE]
//   wats_bench --selftest        wrapper transparency checks
//   wats_bench --list-metrics    the metric catalog, one "name unit" a line
//
// The last line of a workload run is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 when every
// output check passed, 1 when one failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "wats_bench: %s\nusage: wats_bench --workload "
               "{sim-at-scale|sim-paper|rt-tiny-tasks|serve-grid} [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE]\n"
               "       wats_bench --selftest | --list-metrics\n",
               message);
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return !text.empty() && text[0] != '-' && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      const bool sim_ok = selftest_sim_wrappers();
      const bool serve_ok = selftest_serve_observer();
      return sim_ok && serve_ok ? 0 : 1;
    }
    if (arg == "--list-metrics") {
      for (const auto& def : end_to_end_metrics()) {
        std::printf("end_to_end %s %s\n", def.name, def.unit);
      }
      for (const auto& def : per_layer_metrics()) {
        std::printf("per_layer %s %s\n", def.name, def.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, options.seed)) return usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!parse_u64(value, number) || number == 0 || number > 600) {
        return usage("--seconds must be 1..600");
      }
      options.seconds = static_cast<double>(number);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }

  RunResult result;
  if (workload == "sim-at-scale") {
    result = run_sim_at_scale(options);
  } else if (workload == "sim-paper") {
    result = run_sim_paper(options);
  } else if (workload == "rt-tiny-tasks") {
    result = run_rt_tiny_tasks(options);
  } else if (workload == "serve-grid") {
    result = run_serve_grid(options);
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  print_result(workload, result, options.trace);
  return result.correct && result.failed == 0 ? 0 : 1;
}
