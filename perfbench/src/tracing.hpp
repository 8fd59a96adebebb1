// In-memory span tracer for the traced benchmark run.
//
// The benchmark wraps each call it makes into a layer (a scheduler hook,
// a workload hook, Engine::run, run_serving, a lease assignment, a runtime
// spawn) in begin()/end(). Spans nest: a span's self time is its duration
// minus the time of the spans opened inside it, so the per-layer self
// times of one Engine::run add up to its wall time. Totals are kept for
// every call; the spans themselves are stored up to a per-layer cap and
// written as Chrome trace-event JSON when the run ends.
//
// One tracer serves one thread at a time: callers on different threads
// must be ordered by a happens-before edge (the runtime workload hands the
// tracer to its root task and takes it back through wait_all()).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kEngineRun,
  kPlace,
  kAcquire,
  kSnatch,
  kComplete,
  kWorkloadComplete,
  kServingRun,
  kLease,
  kRtBatch,
  kRtSpawn,
  kCount,
};

const char* layer_name(Layer layer);

class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t hits = 0;  ///< calls that ended with hit = true
    double self_ns = 0.0;
    double total_ns = 0.0;
  };

  Tracer();

  /// Open a span of `layer` nested in the innermost open span.
  void begin(Layer layer) {
    stack_.push_back({layer, wats::obs::tsc_now(), 0, next_id_++});
  }
  /// Close the innermost open span; `hit` marks a useful outcome (an
  /// acquire that found work, a snatch that found a victim).
  void end(bool hit = true);

  const Totals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  std::uint64_t spans_recorded() const { return next_id_ - 1; }
  /// Nanoseconds spanned by `ticks` of wats::obs::tsc_now().
  double ticks_to_ns(std::uint64_t ticks) const {
    return calib_.delta_ns(ticks);
  }

  /// Write the stored spans as Chrome trace-event JSON. Returns false when
  /// the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    std::uint64_t start;
    std::uint64_t child_ticks;
    std::uint64_t id;
  };
  struct Span {
    std::uint64_t start;
    std::uint64_t end;
    std::uint64_t id;
    std::uint64_t parent;
    Layer layer;
  };
  static constexpr std::size_t kSpansPerLayer = 10000;

  wats::obs::TscCalibration calib_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::array<Totals, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::array<std::size_t, static_cast<std::size_t>(Layer::kCount)> stored_{};
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
