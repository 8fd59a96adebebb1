// serve-grid: every cell of the serving-smoke grid (lease policies with
// admission control on), run through serve::run_serving as an open loop of
// job arrivals in virtual time, over many arrival seeds.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "serve/lease.hpp"
#include "serve/scenarios.hpp"
#include "serve/serving.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wats;

struct ServeCell {
  std::string label;
  serve::ServingConfig config;
};

/// Arrival seeds per grid cell. The serving-sweep grid is left out: with
/// no admission control its overloaded cells queue jobs without bound, and
/// every lease recomputation walks the queue, so their host cost swings
/// several-fold from one arrival seed to the next.
constexpr std::uint64_t kArrivalSeeds = 20;

constexpr const char* kGrids[] = {"serving-smoke"};

/// Grid cells in run_serving_scenario's order, once per arrival seed. The
/// arrival seeds of run `seed` are the registry's plus
/// (seed - kDefaultSeed) * kArrivalSeeds + k, so the first seed of the
/// default run reproduces the registry.
std::vector<ServeCell> resolve_cells(std::uint64_t seed) {
  std::vector<ServeCell> cells;
  for (std::uint64_t k = 0; k < kArrivalSeeds; ++k) {
    for (const char* name : kGrids) {
      serve::ServingScenario scenario = *serve::find_serving_scenario(name);
      scenario.base.sim.seed += (seed - kDefaultSeed) * kArrivalSeeds + k;
      for (const serve::ArrivalKind arrival : scenario.arrival_kinds) {
        for (const double load : scenario.load_factors) {
          for (const serve::LeasePolicy policy : scenario.policies) {
            char label[128];
            std::snprintf(label, sizeof(label), "%s/%s/%.2f/%s/seed+%llu",
                          name, serve::to_string(arrival), load,
                          serve::to_string(policy),
                          static_cast<unsigned long long>(k));
            cells.push_back({label, serve::cell_config(scenario, policy,
                                                       arrival, load)});
          }
        }
      }
    }
  }
  return cells;
}

/// Re-runs assign_leases on every lease recomputation run_serving reports,
/// with the previously observed owners as incumbents, and checks that the
/// replay reproduces the owners the serving layer chose.
class LeaseReplay {
 public:
  LeaseReplay(const serve::ServingConfig& config, Tracer* tracer)
      : policy_(config.policy),
        topo_(core::amc_by_name_or_spec(config.machine)),
        previous_(topo_.group_count(), serve::kUnleased),
        tracer_(tracer) {}

  void observe(double now, const std::vector<std::size_t>& owners,
               const std::vector<serve::JobView>& views) {
    if (tracer_ != nullptr) tracer_->begin(Layer::kLease);
    const std::vector<std::size_t> replayed =
        serve::assign_leases(policy_, topo_, views, now, &previous_);
    if (tracer_ != nullptr) tracer_->end();
    if (replayed != owners) ++mismatches_;
    previous_ = owners;
  }

  std::uint64_t mismatches() const { return mismatches_; }

 private:
  serve::LeasePolicy policy_;
  core::AmcTopology topo_;
  std::vector<std::size_t> previous_;
  Tracer* tracer_;
  std::uint64_t mismatches_ = 0;
};

/// run_serving on one cell; with `observe` the lease replay is attached.
serve::ServingResult run_cell(const ServeCell& cell, bool observe,
                              Tracer* tracer, RunResult& result) {
  if (!observe) return serve::run_serving(cell.config);
  LeaseReplay replay(cell.config, tracer);
  serve::ServingConfig config = cell.config;
  config.lease_observer = [&replay](double now,
                                    const std::vector<std::size_t>& owners,
                                    const std::vector<serve::JobView>& views) {
    replay.observe(now, owners, views);
  };
  if (tracer != nullptr) tracer->begin(Layer::kServingRun);
  serve::ServingResult out = serve::run_serving(config);
  if (tracer != nullptr) tracer->end();
  if (replay.mismatches() != 0) {
    result.fail(cell.label + ": " + std::to_string(replay.mismatches()) +
                " replayed lease assignments differ from the observed ones");
  }
  return out;
}

bool same_outcome(const serve::ServingResult& a,
                  const serve::ServingResult& b) {
  if (a.jobs.size() != b.jobs.size() || a.admitted != b.admitted ||
      a.finished != b.finished || a.makespan != b.makespan ||
      a.lease_churn != b.lease_churn) {
    return false;
  }
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    if (a.jobs[j].admitted != b.jobs[j].admitted ||
        a.jobs[j].finish != b.jobs[j].finish) {
      return false;
    }
  }
  return true;
}

/// Account one cell: its jobs are the operations; a job is failed when it
/// was admitted but never finished, or when the cell's outcome differs
/// from the reference pass. Refused jobs are not failures: admission
/// control refusing load is the smoke grid's intended behaviour, and they
/// already count as missed deadlines in goodput.
void check_cell(const ServeCell& cell, const serve::ServingResult& r,
                const serve::ServingResult* reference, RunResult& result) {
  result.attempted += r.arrived;
  const bool counts_ok = r.arrived == cell.config.jobs &&
                         r.admitted + r.rejected == r.arrived &&
                         r.finished == r.admitted;
  const bool same = reference == nullptr || same_outcome(r, *reference);
  if (!counts_ok) {
    result.failed += r.admitted > r.finished ? r.admitted - r.finished : 1;
    result.fail(cell.label + ": arrived " + std::to_string(r.arrived) +
                ", admitted " + std::to_string(r.admitted) + ", rejected " +
                std::to_string(r.rejected) + ", finished " +
                std::to_string(r.finished));
  } else if (!same) {
    result.failed += r.arrived;
    result.fail(cell.label + ": outcome differs from the reference pass");
  }
}

}  // namespace

RunResult run_serve_grid(const RunOptions& options) {
  RunResult result;

  // Set-up: scenario lookup and calibration of every grid cell, timed
  // several times up front and again before every pass.
  std::vector<double> setup_s;
  std::vector<ServeCell> cells;
  const auto time_setup = [&](int times) {
    for (int i = 0; i < times; ++i) {
      const auto start = Clock::now();
      std::vector<ServeCell> resolved = resolve_cells(options.seed);
      setup_s.push_back(seconds_since(start));
      if (cells.empty()) cells = std::move(resolved);
    }
  };
  time_setup(5);

  // The first arrival seed's cells run once more, untimed, with the lease
  // replay attached.
  const std::size_t cells_per_seed = cells.size() / kArrivalSeeds;
  std::vector<serve::ServingResult> observed;
  for (std::size_t c = 0; c < cells_per_seed; ++c) {
    observed.push_back(run_cell(cells[c], true, nullptr, result));
    check_cell(cells[c], observed.back(), nullptr, result);
  }

  // At the default seed those cells are the registry's own grids.
  if (options.seed == kDefaultSeed) {
    std::size_t c = 0;
    for (const char* name : kGrids) {
      for (const serve::ServingCell& cell :
           serve::run_serving_scenario(*serve::find_serving_scenario(name))) {
        if (!same_outcome(cell.result, observed[c])) {
          result.fail(cells[c].label +
                      ": differs from run_serving_scenario");
        }
        ++c;
      }
    }
  }

  // Timed passes (untraced and traced alternate when tracing is on). The
  // first pass is the reference every later one must reproduce. Each cell
  // keeps its fastest untraced pass, as in the sim workloads.
  Tracer tracer;
  std::vector<serve::ServingResult> reference;
  std::vector<std::vector<double>> cell_s(cells.size());
  std::vector<double> plain_walls, traced_walls;
  std::uint64_t traced_events = 0;
  std::uint64_t churn = 0, publishes = 0, skips = 0;
  std::size_t passes = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  while (passes < (options.trace ? 3u : 2u) || Clock::now() < deadline) {
    time_setup(5);
    const bool traced = options.trace && passes % 2 == 1;
    const auto pass_start = Clock::now();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const auto start = Clock::now();
      serve::ServingResult r =
          run_cell(cells[c], traced, traced ? &tracer : nullptr, result);
      if (!traced) cell_s[c].push_back(seconds_since(start));
      const serve::ServingResult* expected =
          passes > 0 ? &reference[c]
          : c < observed.size() ? &observed[c]
                                : nullptr;
      check_cell(cells[c], r, expected, result);
      if (traced) {
        traced_events += r.stats.sim_events;
        churn += r.lease_churn;
        publishes += r.lease_publishes;
        skips += r.lease_skips;
      }
      if (passes == 0) reference.push_back(std::move(r));
    }
    (traced ? traced_walls : plain_walls).push_back(seconds_since(pass_start));
    ++passes;
  }
  std::uint64_t events_per_pass = 0;
  for (const serve::ServingResult& r : reference) {
    events_per_pass += r.stats.sim_events;
  }

  // Simulated outcomes: exact, a function of the seed alone.
  std::vector<double> latencies;
  double goodput = 0.0;
  std::uint64_t arrived = 0, rejected = 0;
  for (const serve::ServingResult& r : reference) {
    for (const serve::JobOutcome& job : r.jobs) {
      if (job.admitted) latencies.push_back(job.latency);
    }
    goodput += r.goodput;
    arrived += r.arrived;
    rejected += r.rejected;
  }
  goodput /= static_cast<double>(reference.size());
  const double p50 = serve::exact_percentile(latencies, 0.5);
  const double p99 = serve::exact_percentile(latencies, 0.99);
  std::vector<double> cell_ms;
  double total_s = 0.0;
  std::uint64_t finished = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const double s = *std::min_element(cell_s[c].begin(), cell_s[c].end());
    cell_ms.push_back(s * 1e3);
    total_s += s;
    finished += reference[c].finished;
  }
  const double jobs_per_s = static_cast<double>(finished) / total_s;
  char line[320];
  std::snprintf(line, sizeof(line),
                "serve-grid: %zu cells, %zu untraced passes (%llu sim events "
                "a pass); serve_jobs_per_s %.1f 1/s, serve_latency_vt_p50 "
                "%.3f vt, serve_latency_vt_p99 %.3f vt (%zu jobs), "
                "serve_goodput %.6f jobs/kvt",
                cells.size(), plain_walls.size(),
                static_cast<unsigned long long>(events_per_pass), jobs_per_s,
                p50, p99, latencies.size(), goodput);
  result.notes.push_back(line);

  auto& m = result.metrics;
  if (!options.trace) {
    m["setup_s"] = median(setup_s);
    m["peak_rss_mb"] = peak_rss_mb();
    m["items_per_s"] = jobs_per_s;
    m["step_ms_p50"] = quantile(cell_ms, 0.5);
    m["step_ms_p90"] = quantile(cell_ms, 0.9);
    return result;
  }

  const auto traced_passes = static_cast<double>(traced_walls.size());
  const auto& lease = tracer.totals(Layer::kLease);
  const auto& run = tracer.totals(Layer::kServingRun);
  m["serve.lease.calls"] = static_cast<double>(lease.calls) / traced_passes;
  m["serve.lease.ns"] = lease.self_ns / traced_passes;
  m["serve.rest_ns_per_event"] =
      (run.self_ns - lease.self_ns) / static_cast<double>(traced_events);
  m["serve.lease.churn"] = static_cast<double>(churn) / traced_passes;
  m["serve.lease.publish_ratio"] =
      static_cast<double>(publishes) / static_cast<double>(publishes + skips);
  m["serve.rejected_ratio"] =
      static_cast<double>(rejected) / static_cast<double>(arrived);
  m["serve.latency_vt_p50"] = p50;
  m["serve.latency_vt_p99"] = p99;
  m["serve.goodput"] = goodput;
  m["trace.overhead_ratio"] = median(traced_walls) / median(plain_walls);
  m["trace.spans"] =
      static_cast<double>(tracer.spans_recorded()) / traced_passes;
  if (!options.trace_path.empty() &&
      !tracer.write_chrome_json(options.trace_path)) {
    result.fail("cannot write " + options.trace_path);
  }
  return result;
}

bool selftest_serve_observer() {
  // The observer must not change what run_serving computes.
  RunResult result;
  std::vector<ServeCell> cells = resolve_cells(kDefaultSeed);
  cells.resize(6);
  Tracer tracer;
  bool ok = true;
  for (const ServeCell& cell : cells) {
    const serve::ServingResult plain = run_cell(cell, false, nullptr, result);
    const serve::ServingResult observed = run_cell(cell, true, &tracer, result);
    if (!same_outcome(plain, observed)) {
      std::printf("selftest: %s differs with the lease observer\n",
                  cell.label.c_str());
      ok = false;
    }
  }
  ok = ok && result.correct && tracer.totals(Layer::kLease).calls > 0;
  for (const auto& error : result.errors) {
    std::printf("selftest: %s\n", error.c_str());
  }
  std::printf("selftest serve observer: %zu cells, %s\n", cells.size(),
              ok ? "transparent" : "NOT transparent");
  return ok;
}

}  // namespace perfbench
