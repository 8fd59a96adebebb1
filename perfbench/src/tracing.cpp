#include "tracing.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kEngineRun: return "engine.run";
    case Layer::kPlace: return "sched.place";
    case Layer::kAcquire: return "sched.acquire";
    case Layer::kSnatch: return "sched.snatch";
    case Layer::kComplete: return "sched.complete";
    case Layer::kWorkloadComplete: return "workload.complete";
    case Layer::kServingRun: return "serve.run";
    case Layer::kLease: return "serve.lease";
    case Layer::kRtBatch: return "rt.batch";
    case Layer::kRtSpawn: return "rt.spawn";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer() : calib_(wats::obs::calibrate_tsc()) {}

void Tracer::end(bool hit) {
  const std::uint64_t now = wats::obs::tsc_now();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::uint64_t ticks = now > frame.start ? now - frame.start : 0;
  const std::uint64_t self_ticks =
      ticks > frame.child_ticks ? ticks - frame.child_ticks : 0;
  if (!stack_.empty()) stack_.back().child_ticks += ticks;

  const auto index = static_cast<std::size_t>(frame.layer);
  Totals& t = totals_[index];
  ++t.calls;
  if (hit) ++t.hits;
  t.self_ns += calib_.delta_ns(self_ticks);
  t.total_ns += calib_.delta_ns(ticks);
  if (stored_[index] < kSpansPerLayer) {
    ++stored_[index];
    spans_.push_back({frame.start, now, frame.id,
                      stack_.empty() ? 0 : stack_.back().id, frame.layer});
  }
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\": [\n");
  std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts_us =
        calib_.delta_ns(s.start >= origin ? s.start - origin : 0) / 1000.0;
    const double dur_us = calib_.delta_ns(s.end - s.start) / 1000.0;
    std::fprintf(out,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu}}%s\n",
                 layer_name(s.layer), ts_us, dur_us,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
