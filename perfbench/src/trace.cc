#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double Tracer::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name, int parent, uint64_t op) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.op = op;
  s.start_ms = s.end_ms = NowMs();
  spans_.push_back(std::move(s));
  children_.emplace_back();
  const int id = static_cast<int>(spans_.size()) - 1;
  if (parent >= 0) children_[static_cast<size_t>(parent)].push_back(id);
  return id;
}

void Tracer::End(int span) { spans_[static_cast<size_t>(span)].end_ms = NowMs(); }

int Tracer::Child(const std::string& name, int parent, double start_ms,
                  double duration_ms) {
  const Span& p = spans_[static_cast<size_t>(parent)];
  const double start = std::clamp(start_ms, p.start_ms, p.end_ms);
  const double end = std::min(start + std::max(duration_ms, 0.0), p.end_ms);
  const uint64_t op = p.op;
  const int id = Begin(name, parent, op);
  spans_[static_cast<size_t>(id)].start_ms = start;
  spans_[static_cast<size_t>(id)].end_ms = end;
  return id;
}

double Tracer::SelfMs(int i) const {
  std::vector<std::pair<double, double>> covered;
  for (int c : children_[static_cast<size_t>(i)]) {
    covered.emplace_back(span(c).start_ms, span(c).end_ms);
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0.0;
  double reach = span(i).start_ms;
  for (const auto& [start, end] : covered) {
    const double from = std::max(start, reach);
    const double to = std::min(end, span(i).end_ms);
    if (to > from) busy += to - from;
    reach = std::max(reach, to);
  }
  return Duration(i) - busy;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(Duration(static_cast<int>(i)));
  }
  return out;
}

std::vector<double> Tracer::SelfTimes(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(SelfMs(static_cast<int>(i)));
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"span\":%zu,\"parent\":%d,\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_ms * 1000.0,
                 (s.end_ms - s.start_ms) * 1000.0,
                 static_cast<unsigned long long>(s.op), i, s.parent,
                 SelfMs(static_cast<int>(i)) * 1000.0);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
