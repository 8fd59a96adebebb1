// rt-tiny-tasks: the real-thread TaskRuntime under WATS without the
// duty-cycle speed emulation, driven as a closed loop of 2000-task
// batches. A root task spawns each batch from inside the runtime, so the
// main thread only waits in wait_all() and the host's four cores carry
// three workers plus the helper thread.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "obs/clock.hpp"
#include "runtime/runtime.hpp"
#include "tracing.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wats;

constexpr std::size_t kBatchTasks = 2000;
/// Spin work of the four task classes, in units of kSpinPerUnit steps.
constexpr std::array<std::uint64_t, 4> kClassUnits{1, 4, 16, 64};
constexpr std::uint64_t kSpinPerUnit = 32;
/// Distinct per-batch class sequences drawn from the seed; batch b runs
/// sequence b mod kSequences.
constexpr std::size_t kSequences = 64;
/// Consecutive untraced batches that form one pass (about half a second).
/// Each end-to-end metric is its best value over the passes: interference
/// from other tenants of the host only ever slows batches down, by up to
/// 1.7x for seconds to minutes.
constexpr std::size_t kPassBatches = 4 * kSequences;

std::uint64_t spin(std::uint64_t steps, std::uint64_t x) {
  for (std::uint64_t i = 0; i < steps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

/// Per-batch state the task bodies write; reused across batches.
struct Batch {
  const std::vector<std::uint8_t>* classes = nullptr;
  std::vector<std::atomic<std::uint32_t>> runs =
      std::vector<std::atomic<std::uint32_t>>(kBatchTasks);
  std::vector<std::uint64_t> out = std::vector<std::uint64_t>(kBatchTasks);
  bool traced = false;
  std::vector<std::uint64_t> spawn_tick =
      std::vector<std::uint64_t>(kBatchTasks);
  std::vector<std::uint64_t> start_tick =
      std::vector<std::uint64_t>(kBatchTasks);
};

struct RtHarness {
  std::unique_ptr<runtime::TaskRuntime> rt;
  std::array<core::TaskClassId, kClassUnits.size()> class_ids{};
  std::vector<std::vector<std::uint8_t>> sequences;
  std::array<std::uint64_t, kClassUnits.size()> expected{};
  Batch batch;
  std::uint64_t batches_run = 0;

  /// Run one batch: spawn the root task, which spawns kBatchTasks tasks,
  /// and wait for all of them.
  void run_batch(std::uint64_t index, Tracer* tracer) {
    batch.classes = &sequences[index % sequences.size()];
    batch.traced = tracer != nullptr;
    for (auto& r : batch.runs) r.store(0, std::memory_order_relaxed);

    Batch* b = &batch;
    runtime::TaskRuntime* runtime = rt.get();
    const auto* ids = &class_ids;
    runtime->spawn([b, runtime, ids, tracer] {
      for (std::uint32_t i = 0; i < kBatchTasks; ++i) {
        const std::uint8_t cls = (*b->classes)[i];
        auto body = [b, i, cls] {
          if (b->traced) b->start_tick[i] = obs::tsc_now();
          b->out[i] = spin(kClassUnits[cls] * kSpinPerUnit, cls);
          b->runs[i].fetch_add(1, std::memory_order_relaxed);
        };
        if (tracer != nullptr) {
          b->spawn_tick[i] = obs::tsc_now();
          tracer->begin(Layer::kRtSpawn);
          runtime->spawn((*ids)[cls], body);
          tracer->end();
        } else {
          runtime->spawn((*ids)[cls], body);
        }
      }
    });
    runtime->wait_all();
    ++batches_run;
  }

  /// Tasks of the last batch that did not run exactly once with the
  /// expected result.
  std::uint64_t bad_tasks() const {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < kBatchTasks; ++i) {
      const std::uint8_t cls = (*batch.classes)[i];
      if (batch.runs[i].load(std::memory_order_relaxed) != 1 ||
          batch.out[i] != expected[cls]) {
        ++bad;
      }
    }
    return bad;
  }
};

std::unique_ptr<RtHarness> set_up(std::uint64_t seed) {
  auto h = std::make_unique<RtHarness>();
  util::Xoshiro256 rng(seed);
  h->sequences.assign(kSequences, std::vector<std::uint8_t>(kBatchTasks));
  for (auto& sequence : h->sequences) {
    for (auto& cls : sequence) {
      cls = static_cast<std::uint8_t>(rng.bounded(kClassUnits.size()));
    }
  }
  for (std::size_t c = 0; c < kClassUnits.size(); ++c) {
    h->expected[c] = spin(kClassUnits[c] * kSpinPerUnit, c);
  }
  runtime::RuntimeConfig config;
  config.topology = core::amc_by_name_or_spec("1x2.0+2x1.0");
  config.policy = runtime::Policy::kWats;
  config.emulate_speeds = false;
  config.seed = seed;
  h->rt = std::make_unique<runtime::TaskRuntime>(config);
  for (std::size_t c = 0; c < kClassUnits.size(); ++c) {
    h->class_ids[c] = h->rt->register_class("spin" + std::to_string(c));
  }
  // Warm-up batch: the helper thread learns the four classes.
  h->run_batch(0, nullptr);
  return h;
}

std::uint64_t counter(const runtime::TaskRuntime& rt, const char* name) {
  for (const auto& [key, value] : rt.metrics().snapshot().counters) {
    if (key == name) return value;
  }
  return 0;
}

}  // namespace

RunResult run_rt_tiny_tasks(const RunOptions& options) {
  RunResult result;

  // Set-up: runtime construction, class registration and one warm-up
  // batch, timed several times; the last runtime is the measured one.
  std::vector<double> setup_s;
  std::unique_ptr<RtHarness> h;
  for (int i = 0; i < 5; ++i) {
    h.reset();
    const auto start = Clock::now();
    h = set_up(options.seed);
    setup_s.push_back(seconds_since(start));
  }
  runtime::TaskRuntime& rt = *h->rt;
  const runtime::RuntimeStats before = rt.stats();
  const std::uint64_t wakeups_before = counter(rt, "wakeups_issued");
  const std::uint64_t spurious_before = counter(rt, "spurious_wakeups");

  Tracer tracer;
  std::vector<double> batch_ms, traced_batch_ms;
  std::vector<double> queue_wait_us;
  std::uint64_t measured = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  const std::uint64_t min_batches = kPassBatches * (options.trace ? 2 : 1);
  while (measured < min_batches || Clock::now() < deadline) {
    const bool traced = options.trace && measured % 2 == 1;
    const auto start = Clock::now();
    if (traced) tracer.begin(Layer::kRtBatch);
    h->run_batch(h->batches_run, traced ? &tracer : nullptr);
    if (traced) tracer.end();
    (traced ? traced_batch_ms : batch_ms)
        .push_back(seconds_since(start) * 1e3);
    const std::uint64_t bad = h->bad_tasks();
    ++measured;
    result.attempted += kBatchTasks;
    if (bad != 0) {
      result.failed += bad;
      result.fail(std::to_string(bad) + " tasks of batch " +
                  std::to_string(h->batches_run) +
                  " did not run exactly once with the expected result");
    }
    if (traced) {
      for (std::size_t i = 0; i < kBatchTasks; ++i) {
        const std::uint64_t s = h->batch.spawn_tick[i];
        const std::uint64_t b = h->batch.start_tick[i];
        queue_wait_us.push_back(tracer.ticks_to_ns(b > s ? b - s : 0) / 1e3);
      }
    }
  }

  const runtime::RuntimeStats after = rt.stats();
  // Every batch is a root task plus kBatchTasks children.
  const std::uint64_t spawned = h->batches_run * (kBatchTasks + 1);
  if (after.tasks_executed != spawned) {
    result.fail("runtime executed " + std::to_string(after.tasks_executed) +
                " tasks, " + std::to_string(spawned) + " were spawned");
  }

  // Each end-to-end figure is the best over the full passes of untraced
  // batches.
  double tasks_per_s = 0.0, batch_p50 = 0.0, batch_p90 = 0.0;
  for (std::size_t p = 0; p + kPassBatches <= batch_ms.size();
       p += kPassBatches) {
    const std::vector<double> pass(
        batch_ms.begin() + static_cast<std::ptrdiff_t>(p),
        batch_ms.begin() + static_cast<std::ptrdiff_t>(p + kPassBatches));
    double pass_ms = 0.0;
    for (double ms : pass) pass_ms += ms;
    const double rate = static_cast<double>(kPassBatches * kBatchTasks) /
                        (pass_ms / 1e3);
    const double p50 = quantile(pass, 0.5);
    const double p90 = quantile(pass, 0.9);
    tasks_per_s = std::max(tasks_per_s, rate);
    batch_p50 = p == 0 ? p50 : std::min(batch_p50, p50);
    batch_p90 = p == 0 ? p90 : std::min(batch_p90, p90);
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "rt-tiny-tasks: %zu untraced batches of %zu tasks, best of "
                "passes of %zu: rt_tasks_per_s %.0f 1/s, rt_batch_ms_p50 "
                "%.4f ms, rt_batch_ms_p90 %.4f ms",
                batch_ms.size(), kBatchTasks, kPassBatches, tasks_per_s,
                batch_p50, batch_p90);
  result.notes.push_back(line);

  auto& m = result.metrics;
  if (!options.trace) {
    m["setup_s"] = median(setup_s);
    m["peak_rss_mb"] = peak_rss_mb();
    m["items_per_s"] = tasks_per_s;
    m["step_ms_p50"] = batch_p50;
    m["step_ms_p90"] = batch_p90;
    return result;
  }

  const auto batches = static_cast<double>(measured);
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double executed = delta(after.tasks_executed, before.tasks_executed);
  const double wakeups = delta(counter(rt, "wakeups_issued"), wakeups_before);
  const auto& spawn = tracer.totals(Layer::kRtSpawn);
  m["rt.spawn.ns"] = spawn.self_ns / static_cast<double>(spawn.calls);
  m["rt.queue_wait_us_p50"] = quantile(queue_wait_us, 0.5);
  m["rt.queue_wait_us_p90"] = quantile(queue_wait_us, 0.9);
  m["rt.batch_ms_p99"] = quantile(batch_ms, 0.99);
  m["rt.steal_ratio"] = delta(after.steals, before.steals) / executed;
  m["rt.cross_cluster_ratio"] =
      delta(after.cross_cluster_acquires, before.cross_cluster_acquires) /
      executed;
  m["rt.failed_acquire_rounds"] =
      delta(after.failed_acquire_rounds, before.failed_acquire_rounds) /
      batches;
  m["rt.wakeups_issued"] = wakeups / batches;
  m["rt.spurious_wakeup_ratio"] =
      wakeups > 0.0
          ? delta(counter(rt, "spurious_wakeups"), spurious_before) / wakeups
          : 0.0;
  m["rt.plans_published"] = delta(after.reclusters, before.reclusters) /
                            batches;
  m["rt.plans_skipped"] =
      delta(after.plans_skipped, before.plans_skipped) / batches;
  m["trace.overhead_ratio"] = median(traced_batch_ms) / median(batch_ms);
  m["trace.spans"] = static_cast<double>(tracer.spans_recorded()) /
                     static_cast<double>(traced_batch_ms.size());
  if (!options.trace_path.empty() &&
      !tracer.write_chrome_json(options.trace_path)) {
    result.fail("cannot write " + options.trace_path);
  }
  return result;
}

}  // namespace perfbench
