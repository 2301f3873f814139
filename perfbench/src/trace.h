// In-memory span recorder of the traced run. Spans are taken in the
// benchmark's own code around calls into each layer's public entry
// point; durations the program reports about itself (a reply's
// queue/plan/drain times, QueryResult::optimize_ms) become child spans
// laid inside their parent. Written out as Chrome trace JSON.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  /// Index of the parent span, or -1 for an op's root.
  int parent = -1;
  uint64_t op = 0;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  double NowMs() const;
  /// Opens a span now; returns its index.
  int Begin(const std::string& name, int parent, uint64_t op);
  void End(int span);
  /// Records a child of `parent` with a known duration starting at
  /// `start_ms` (clipped to the parent's end).
  int Child(const std::string& name, int parent, double start_ms,
            double duration_ms);

  const Span& span(int i) const { return spans_[static_cast<size_t>(i)]; }
  double Duration(int i) const { return span(i).end_ms - span(i).start_ms; }
  /// The span's duration minus the part of it its children cover.
  double SelfMs(int i) const;
  /// Durations (or self times) of every span with this name.
  std::vector<double> Durations(const std::string& name) const;
  std::vector<double> SelfTimes(const std::string& name) const;

  bool WriteChromeJson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
