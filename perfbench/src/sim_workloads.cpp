// sim-at-scale and sim-paper: registry scenarios executed cell by cell
// through sim::Engine, composed exactly as sim::run_experiment composes
// them, and checked against scenario::run_scenario.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/history_io.hpp"
#include "core/task_class.hpp"
#include "core/topology.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/workload_adapter.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wats;

/// Forwards every call to the wrapped scheduler inside a tracer span.
class TracedScheduler final : public sim::Scheduler {
 public:
  TracedScheduler(sim::Scheduler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void bind(sim::Engine& engine) override { inner_.bind(engine); }

  void on_spawn(sim::Engine& engine, sim::SimTask task,
                core::CoreIndex spawner) override {
    tracer_.begin(Layer::kPlace);
    inner_.on_spawn(engine, std::move(task), spawner);
    tracer_.end();
  }

  std::optional<sim::Acquired> acquire(sim::Engine& engine,
                                       core::CoreIndex core) override {
    tracer_.begin(Layer::kAcquire);
    std::optional<sim::Acquired> acquired = inner_.acquire(engine, core);
    tracer_.end(acquired.has_value());
    return acquired;
  }

  std::optional<core::CoreIndex> maybe_snatch(sim::Engine& engine,
                                              core::CoreIndex thief) override {
    tracer_.begin(Layer::kSnatch);
    const std::optional<core::CoreIndex> victim =
        inner_.maybe_snatch(engine, thief);
    tracer_.end(victim.has_value());
    return victim;
  }

  void on_complete(sim::Engine& engine, const sim::SimTask& task,
                   core::CoreIndex core) override {
    tracer_.begin(Layer::kComplete);
    inner_.on_complete(engine, task, core);
    tracer_.end();
  }

  void on_recluster_tick(sim::Engine& engine) override {
    inner_.on_recluster_tick(engine);
  }
  bool has_pending() const override { return inner_.has_pending(); }
  std::vector<double> queued_group_work(
      const core::AmcTopology& topo) const override {
    return inner_.queued_group_work(topo);
  }
  const core::policy::PolicyKernel* kernel() const override {
    return inner_.kernel();
  }
  void set_decision_sink(obs::DecisionSink* sink) override {
    inner_.set_decision_sink(sink);
  }

 private:
  sim::Scheduler& inner_;
  Tracer& tracer_;
};

class TracedWorkload final : public sim::Workload {
 public:
  TracedWorkload(sim::Workload& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void start(sim::Engine& engine) override { inner_.start(engine); }
  void on_complete(sim::Engine& engine, const sim::SimTask& task,
                   core::CoreIndex core) override {
    tracer_.begin(Layer::kWorkloadComplete);
    inner_.on_complete(engine, task, core);
    tracer_.end();
  }
  bool done() const override { return inner_.done(); }

 private:
  sim::Workload& inner_;
  Tracer& tracer_;
};

/// One (machine, workload, variant, scheduler) cell of a scenario.
struct SimCell {
  std::string label;
  core::AmcTopology topo;
  workloads::BenchmarkSpec spec;
  sim::ExperimentConfig config;
  sim::SchedulerKind kind = sim::SchedulerKind::kWats;
};

/// Resolve scenarios into cells, in run_scenario's order (machine, then
/// workload, then variant, then scheduler).
std::vector<SimCell> resolve_cells(
    const std::vector<scenario::ScenarioSpec>& scenarios,
    std::vector<std::string>& errors) {
  std::vector<SimCell> cells;
  for (const scenario::ScenarioSpec& spec : scenarios) {
    for (const std::string& error : scenario::validate_scenario(spec)) {
      errors.push_back(spec.name + ": " + error);
    }
    if (!errors.empty()) return {};
    const auto resolved = scenario::resolve_workloads(spec);
    std::vector<scenario::ScenarioVariant> variants = spec.variants;
    if (variants.empty()) variants.push_back({"", {}});
    for (const std::string& machine : spec.machines) {
      const core::AmcTopology topo = core::amc_by_name_or_spec(machine);
      for (const scenario::ResolvedWorkload& workload : resolved) {
        if (workload.multiprogram()) {
          errors.push_back(spec.name + ": multiprogram cell " +
                           workload.label + " is not supported");
          return {};
        }
        for (const scenario::ScenarioVariant& variant : variants) {
          std::vector<workloads::BenchmarkSpec> specs = workload.specs;
          const sim::ExperimentConfig config =
              scenario::experiment_config(spec, variant, specs);
          for (const sim::SchedulerKind kind : spec.schedulers) {
            cells.push_back({spec.name + "/" + machine + "/" +
                                 workload.label + "/" + variant.label + "/" +
                                 sim::to_string(kind),
                             topo, specs[0], config, kind});
          }
        }
      }
    }
  }
  return cells;
}

struct CellOutcome {
  double mean_makespan = 0.0;
  std::uint64_t events = 0;
  bool conserved = true;  ///< spawned == completed == the spec's task count
  core::policy::PlanStats plans;
};

/// One cell, every repeat: the body of sim::run_experiment, with the
/// scheduler and workload wrapped when `tracer` is set.
CellOutcome run_cell(const SimCell& cell, Tracer* tracer) {
  CellOutcome out;
  const sim::ExperimentConfig& config = cell.config;
  for (std::size_t i = 0; i < config.repeats; ++i) {
    sim::SimConfig sim_config = config.sim;
    sim_config.seed = config.base_seed + i;
    core::TaskClassRegistry registry(config.estimator, config.ewma_alpha);
    if (config.change_point.enabled) {
      registry.configure_change_point(config.change_point);
    }
    if (!config.warm_history.empty()) {
      core::load_history(registry, config.warm_history);
    }
    auto scheduler = sim::make_scheduler(cell.kind, registry);
    auto workload =
        sim::make_workload(cell.spec, registry, sim_config.seed ^ 0x9E3779B9u);

    sim::RunStats stats;
    if (tracer != nullptr) {
      TracedScheduler traced_scheduler(*scheduler, *tracer);
      TracedWorkload traced_workload(*workload, *tracer);
      sim::Engine engine(cell.topo, sim_config, traced_scheduler,
                         traced_workload);
      traced_scheduler.bind(engine);
      tracer->begin(Layer::kEngineRun);
      stats = engine.run();
      tracer->end();
    } else {
      sim::Engine engine(cell.topo, sim_config, *scheduler, *workload);
      scheduler->bind(engine);
      stats = engine.run();
    }

    out.mean_makespan += stats.makespan;
    out.events += stats.sim_events;
    out.conserved = out.conserved && stats.spawned == stats.tasks_completed &&
                    stats.tasks_completed == cell.spec.total_tasks();
    if (const auto* kernel = scheduler->kernel()) {
      const core::policy::PlanStats p = kernel->plan_stats();
      out.plans.published += p.published;
      out.plans.skipped_identical += p.skipped();
      out.plans.repairs += p.repairs;
      out.plans.repair_fallbacks += p.repair_fallbacks;
    }
  }
  out.mean_makespan /= static_cast<double>(config.repeats);
  return out;
}

/// One pass over every cell, through the registry's runner or through the
/// Engine composition (wrapped when traced).
enum class PassKind { kRegistry, kComposed, kTraced };

const char* to_string(PassKind kind) {
  switch (kind) {
    case PassKind::kRegistry: return "run_scenario";
    case PassKind::kComposed: return "composed";
    case PassKind::kTraced: return "traced";
  }
  return "?";
}

struct PassOutcome {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::vector<double> cell_s;     ///< host seconds per cell
  std::vector<double> makespans;  ///< per cell
  std::vector<bool> conserved;    ///< per cell
  core::policy::PlanStats plans;  ///< composed passes only
};

PassOutcome run_composed_pass(const std::vector<SimCell>& cells,
                              Tracer* tracer) {
  PassOutcome pass;
  const auto start = Clock::now();
  for (const SimCell& cell : cells) {
    const auto cell_start = Clock::now();
    const CellOutcome c = run_cell(cell, tracer);
    pass.cell_s.push_back(seconds_since(cell_start));
    pass.events += c.events;
    pass.makespans.push_back(c.mean_makespan);
    pass.conserved.push_back(c.conserved);
    pass.plans.published += c.plans.published;
    pass.plans.skipped_identical += c.plans.skipped_identical;
    pass.plans.repairs += c.plans.repairs;
    pass.plans.repair_fallbacks += c.plans.repair_fallbacks;
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

PassOutcome run_registry_pass(
    const std::vector<scenario::ScenarioSpec>& scenarios,
    const std::vector<SimCell>& cells) {
  PassOutcome pass;
  const auto start = Clock::now();
  std::size_t c = 0;
  for (const scenario::ScenarioSpec& spec : scenarios) {
    for (const scenario::CellResult& cell : scenario::run_scenario(spec).cells) {
      pass.cell_s.push_back(cell.wall_seconds);
      pass.events += cell.sim_events;
      pass.makespans.push_back(cell.mean_makespan);
      pass.conserved.push_back(
          c < cells.size() &&
          cell.tasks_completed ==
              cells[c].config.repeats * cells[c].spec.total_tasks());
      ++c;
    }
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

/// Compare a pass against the latest run_scenario pass; one operation per
/// cell, failed when its makespan differs in any bit or tasks were lost.
void check_pass(const PassOutcome& pass, const std::vector<SimCell>& cells,
                const std::vector<double>& reference, RunResult& result) {
  if (pass.makespans.size() != cells.size()) {
    result.attempted += cells.size();
    result.failed += cells.size();
    result.fail("a pass produced " + std::to_string(pass.makespans.size()) +
                " cells, expected " + std::to_string(cells.size()));
    return;
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    ++result.attempted;
    if (pass.makespans[c] != reference[c] || !pass.conserved[c]) {
      ++result.failed;
      char message[512];
      std::snprintf(message, sizeof(message),
                    "%s: makespan %.17g, run_scenario %.17g, conserved %d",
                    cells[c].label.c_str(), pass.makespans[c], reference[c],
                    pass.conserved[c] ? 1 : 0);
      result.fail(message);
    }
  }
}

struct SimWorkload {
  std::string name;
  /// Registry scenarios re-seeded (and trimmed) for one run.
  std::vector<scenario::ScenarioSpec> (*scenarios)(std::uint64_t seed);
  /// Expected per-cell makespans at kDefaultSeed (empty = none pinned).
  std::vector<double> golden;
};

RunResult run_sim_workload(const SimWorkload& workload,
                           const RunOptions& options) {
  RunResult result;

  // Set-up: registry lookup and resolution of every cell. It is timed
  // several times up front and again before every pass, so its median is
  // not hostage to one noisy moment; the first resolution is the one used.
  std::vector<double> setup_s;
  std::vector<scenario::ScenarioSpec> scenarios;
  std::vector<SimCell> cells;
  const auto time_setup = [&](int times) {
    for (int i = 0; i < times; ++i) {
      const auto start = Clock::now();
      std::vector<std::string> errors;
      auto specs = workload.scenarios(options.seed);
      auto resolved = resolve_cells(specs, errors);
      setup_s.push_back(seconds_since(start));
      for (const std::string& error : errors) result.fail(error);
      if (cells.empty()) {
        scenarios = std::move(specs);
        cells = std::move(resolved);
      }
    }
  };
  time_setup(5);
  if (cells.empty()) {
    result.fail("no cells to run");
    return result;
  }

  // Passes alternate between the registry's runner and the Engine
  // composition (traced, when tracing is on); every composed pass must
  // reproduce the run_scenario pass before it bit for bit. A cell's host
  // time is its fastest untraced pass: interference from other tenants of
  // the host only ever slows a cell down, by up to 1.7x for seconds to
  // minutes, so the fastest pass is the steadiest estimate of its cost.
  Tracer tracer;
  std::vector<std::vector<double>> cell_s(cells.size());
  std::vector<double> reference;
  std::vector<double> plain_walls, traced_walls;
  std::uint64_t traced_events = 0, events_per_pass = 0;
  std::size_t passes = 0;
  core::policy::PlanStats plans;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  while (passes < 3 || Clock::now() < deadline) {
    time_setup(5);
    const PassKind kind = passes % 2 == 0 ? PassKind::kRegistry
                          : options.trace ? PassKind::kTraced
                                          : PassKind::kComposed;
    const PassOutcome pass =
        kind == PassKind::kRegistry
            ? run_registry_pass(scenarios, cells)
            : run_composed_pass(
                  cells, kind == PassKind::kTraced ? &tracer : nullptr);
    ++passes;
    if (kind == PassKind::kRegistry) {
      if (reference.empty()) reference = pass.makespans;
      if (reference.size() != cells.size()) {
        result.fail("run_scenario produced a different cell count");
        return result;
      }
    }
    check_pass(pass, cells, reference, result);
    char line[128];
    std::snprintf(line, sizeof(line), "  %s pass: %.3f s, %llu events",
                  to_string(kind), pass.wall_s,
                  static_cast<unsigned long long>(pass.events));
    result.notes.push_back(line);
    if (kind == PassKind::kTraced) {
      traced_walls.push_back(pass.wall_s);
      traced_events += pass.events;
      plans = pass.plans;
      continue;
    }
    plain_walls.push_back(pass.wall_s);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      cell_s[c].push_back(pass.cell_s[c]);
    }
    if (passes == 1) events_per_pass = pass.events;
  }

  if (options.seed == kDefaultSeed && !workload.golden.empty()) {
    for (std::size_t c = 0; c < workload.golden.size(); ++c) {
      if (std::fabs(reference[c] - workload.golden[c]) > 5e-7) {
        char message[256];
        std::snprintf(message, sizeof(message),
                      "%s: makespan %.6f, expected %.6f",
                      cells[c].label.c_str(), reference[c],
                      workload.golden[c]);
        result.fail(message);
      }
    }
  }

  std::vector<double> cell_ms;
  double total_s = 0.0;
  for (const auto& samples : cell_s) {
    const double s = *std::min_element(samples.begin(), samples.end());
    cell_ms.push_back(s * 1e3);
    total_s += s;
  }
  const double makespan_vt = geomean(reference);
  const double events_per_s =
      static_cast<double>(events_per_pass) / total_s;
  auto& m = result.metrics;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %zu cells, %zu untraced passes; events_per_s %.1f 1/s "
                "(%llu events a pass), makespan_vt %.6f vt (geomean)",
                workload.name.c_str(), cells.size(), plain_walls.size(),
                events_per_s,
                static_cast<unsigned long long>(events_per_pass),
                makespan_vt);
  result.notes.push_back(line);
  if (cells.size() <= 4) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::snprintf(line, sizeof(line), "  %s makespan %.6f",
                    cells[c].label.c_str(), reference[c]);
      result.notes.push_back(line);
    }
  }

  if (!options.trace) {
    m["setup_s"] = median(setup_s);
    m["peak_rss_mb"] = peak_rss_mb();
    m["items_per_s"] = events_per_s;
    m["step_ms_p50"] = quantile(cell_ms, 0.5);
    m["step_ms_p90"] = quantile(cell_ms, 0.9);
    return result;
  }

  const auto per_pass = [&](double v) {
    return v / static_cast<double>(traced_walls.size());
  };
  const auto& place = tracer.totals(Layer::kPlace);
  const auto& acquire = tracer.totals(Layer::kAcquire);
  const auto& snatch = tracer.totals(Layer::kSnatch);
  const auto& complete = tracer.totals(Layer::kComplete);
  const auto& wl_complete = tracer.totals(Layer::kWorkloadComplete);
  const auto& run = tracer.totals(Layer::kEngineRun);
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  m["sched.place.calls"] = per_pass(static_cast<double>(place.calls));
  m["sched.place.ns"] = per_pass(place.self_ns);
  m["sched.acquire.calls"] = per_pass(static_cast<double>(acquire.calls));
  m["sched.acquire.ns"] = per_pass(acquire.self_ns);
  m["sched.acquire.hit_ratio"] = ratio(static_cast<double>(acquire.hits),
                                       static_cast<double>(acquire.calls));
  m["sched.snatch.calls"] = per_pass(static_cast<double>(snatch.calls));
  m["sched.snatch.ns"] = per_pass(snatch.self_ns);
  m["sched.snatch.hit_ratio"] = ratio(static_cast<double>(snatch.hits),
                                      static_cast<double>(snatch.calls));
  m["sched.complete.calls"] = per_pass(static_cast<double>(complete.calls));
  m["sched.complete.ns"] = per_pass(complete.self_ns);
  m["workload.complete.ns"] = per_pass(wl_complete.self_ns);
  m["engine.run.ns"] = per_pass(run.total_ns);
  m["engine.self_ns_per_event"] =
      ratio(run.self_ns, static_cast<double>(traced_events));
  m["engine.sched_share"] =
      ratio(acquire.self_ns + complete.self_ns, run.total_ns);
  m["sim.events"] = per_pass(static_cast<double>(traced_events));
  m["sim.makespan_vt"] = makespan_vt;
  m["plan.published"] = static_cast<double>(plans.published);
  m["plan.skipped"] = static_cast<double>(plans.skipped_identical);
  m["plan.repairs"] = static_cast<double>(plans.repairs);
  m["plan.fallbacks"] = static_cast<double>(plans.repair_fallbacks);
  m["trace.overhead_ratio"] = median(traced_walls) / median(plain_walls);
  m["trace.spans"] = per_pass(static_cast<double>(tracer.spans_recorded()));
  if (!options.trace_path.empty() &&
      !tracer.write_chrome_json(options.trace_path)) {
    result.fail("cannot write " + options.trace_path);
  }
  return result;
}

std::vector<scenario::ScenarioSpec> at_scale_scenarios(std::uint64_t seed) {
  scenario::ScenarioSpec spec = *scenario::find_scenario("at-scale");
  // The 256- and 512-core machines, incremental repair on.
  spec.machines.resize(2);
  std::erase_if(spec.variants, [](const scenario::ScenarioVariant& v) {
    return v.label != "repair";
  });
  spec.base_seed = seed;
  return {spec};
}

std::vector<scenario::ScenarioSpec> paper_scenarios(std::uint64_t seed) {
  std::vector<scenario::ScenarioSpec> specs{*scenario::find_scenario("fig6"),
                                            *scenario::find_scenario("fig10")};
  for (auto& spec : specs) spec.base_seed = seed;
  return specs;
}

}  // namespace

RunResult run_sim_at_scale(const RunOptions& options) {
  return run_sim_workload(
      {"sim-at-scale", at_scale_scenarios, {2012.626338, 1051.104691}},
      options);
}

RunResult run_sim_paper(const RunOptions& options) {
  return run_sim_workload({"sim-paper", paper_scenarios, {}}, options);
}

bool selftest_sim_wrappers() {
  // Small registry cells covering every wrapped hook: RTS and WATS-TS
  // snatch, WATS places and completes, fig10 runs on AMC2.
  std::vector<scenario::ScenarioSpec> scenarios{
      *scenario::find_scenario("fig10")};
  scenarios[0].workloads = {"GA", "Dedup"};
  scenarios[0].repeats = 2;
  scenario::ScenarioSpec rts = *scenario::find_scenario("fig6");
  rts.machines = {"AMC5"};
  rts.workloads = {"MD5"};
  rts.repeats = 2;
  scenarios.push_back(rts);

  std::vector<std::string> errors;
  const std::vector<SimCell> cells = resolve_cells(scenarios, errors);
  if (!errors.empty() || cells.empty()) {
    std::printf("selftest: cannot resolve cells\n");
    return false;
  }
  std::vector<double> reference;
  for (const auto& spec : scenarios) {
    for (const auto& cell : scenario::run_scenario(spec).cells) {
      reference.push_back(cell.mean_makespan);
    }
  }
  Tracer tracer;
  const PassOutcome plain = run_composed_pass(cells, nullptr);
  const PassOutcome traced = run_composed_pass(cells, &tracer);
  bool ok = reference.size() == cells.size();
  for (std::size_t c = 0; ok && c < cells.size(); ++c) {
    if (plain.makespans[c] != reference[c] ||
        traced.makespans[c] != reference[c] || !traced.conserved[c]) {
      std::printf("selftest: %s differs: plain %.17g traced %.17g "
                  "run_scenario %.17g\n",
                  cells[c].label.c_str(), plain.makespans[c],
                  traced.makespans[c], reference[c]);
      ok = false;
    }
  }
  if (plain.events != traced.events) {
    std::printf("selftest: event counts differ: %llu vs %llu\n",
                static_cast<unsigned long long>(plain.events),
                static_cast<unsigned long long>(traced.events));
    ok = false;
  }
  if (tracer.totals(Layer::kSnatch).calls == 0 ||
      tracer.totals(Layer::kPlace).calls == 0) {
    std::printf("selftest: the cells did not reach every wrapped hook\n");
    ok = false;
  }
  std::printf("selftest sim wrappers: %zu cells, %s\n", cells.size(),
              ok ? "transparent" : "NOT transparent");
  return ok;
}

}  // namespace perfbench
