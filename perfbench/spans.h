// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed around calls into the library's public
// functions (one thread, so spans nest strictly). Each span keeps its name,
// start, end and parent; a layer's self time is its duration minus the part
// its child spans cover. Nothing is written while spans are recorded:
// WriteChromeTrace hands them to the process tracer (obs/trace.h) and
// exports them once, when the benchmark ends.
#ifndef TJ_PERFBENCH_SPANS_H_
#define TJ_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tj::perfbench {

class SpanRecorder {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0: a root span.
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;  ///< -1 while open.
  };

  /// Opens a span whose parent is the innermost open span.
  uint64_t Begin(std::string name);
  /// Closes the innermost open span, which must be `id`.
  void End(uint64_t id);

  /// Duration in seconds of span `id` (closed).
  double Seconds(uint64_t id) const;

  /// Sum of self seconds per span name over spans opened at or after index
  /// `first` (see mark()).
  std::map<std::string, double> SelfSecondsByName(size_t first = 0) const;

  /// Index of the next span to be recorded, for SelfSecondsByName.
  size_t mark() const { return spans_.size(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Records every span into the process tracer (category "bench", args
  /// id/parent) and writes its Chrome trace-event JSON to `path`.
  /// Returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;  // spans_[id - 1]
  std::vector<uint64_t> open_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name)
      : recorder_(recorder), id_(recorder->Begin(std::move(name))) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint64_t id_;
};

}  // namespace tj::perfbench

#endif  // TJ_PERFBENCH_SPANS_H_
