#include "spans.h"

#include <chrono>
#include <fstream>

#include "common/logging.h"
#include "obs/trace.h"

namespace tj::perfbench {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

uint64_t SpanRecorder::Begin(std::string name) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = std::move(name);
  span.start_ns = NowNanos();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  const int64_t now = NowNanos();
  TJ_CHECK(!open_.empty() && open_.back() == id) << "spans must nest";
  open_.pop_back();
  spans_[id - 1].end_ns = now;
}

double SpanRecorder::Seconds(uint64_t id) const {
  const Span& span = spans_[id - 1];
  TJ_CHECK_GE(span.end_ns, span.start_ns) << span.name << " is still open";
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByName(
    size_t first) const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const uint64_t parent = spans_[i].parent;
    if (parent > first) child_seconds[parent - 1] += Seconds(spans_[i].id);
  }
  std::map<std::string, double> self;
  for (size_t i = first; i < spans_.size(); ++i) {
    self[spans_[i].name] += Seconds(spans_[i].id) - child_seconds[i];
  }
  return self;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  const int64_t origin_ns = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    TraceEvent event;
    event.name = span.name;
    event.category = "bench";
    event.t_start_us = (span.start_ns - origin_ns) / 1000;
    event.dur_us = (span.end_ns - span.start_ns) / 1000;
    event.args = {{"id", static_cast<int64_t>(span.id)},
                  {"parent", static_cast<int64_t>(span.parent)}};
    tracer.Record(std::move(event));
  }
  tracer.Disable();
  std::ofstream out(path);
  out << tracer.ToChromeJson();
  tracer.Clear();
  return static_cast<bool>(out);
}

}  // namespace tj::perfbench
