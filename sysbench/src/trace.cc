#include "trace.h"

#include <cstdio>
#include <fstream>

namespace sysbench {

int SpanRecorder::Begin(const char* name, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  spans_.back().start_ns = NowNanos();  // last, so bookkeeping is excluded
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNanos();
  open_.pop_back();
}

std::vector<double> SpanRecorder::ChildNanos() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return child_ns;
}

std::map<std::string, SpanRecorder::LayerTotals> SpanRecorder::Totals() const {
  const std::vector<double> child_ns = ChildNanos();
  std::map<std::string, LayerTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double dur = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    LayerTotals& t = totals[spans_[i].name];
    t.count += 1;
    t.inclusive_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  return totals;
}

bool SpanRecorder::WriteSpans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << (s.start_ns - origin)
        << ", \"end_ns\": " << (s.end_ns - origin)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::string SpanRecorder::SelfTimeTable(const std::string& root_name) const {
  const std::map<std::string, LayerTotals> totals = Totals();
  // Share of the self time spent inside root spans: every span whose
  // ancestor chain reaches a root named root_name.
  std::vector<char> under_root(spans_.size(), 0);
  double root_self_sum = 0;
  std::map<std::string, double> root_self;
  const std::vector<double> child_ns = ChildNanos();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    under_root[i] = s.parent >= 0 ? under_root[s.parent]
                                  : static_cast<char>(root_name == s.name);
    if (!under_root[i]) continue;
    const double self = static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
    root_self[s.name] += self;
    root_self_sum += self;
  }
  std::string table;
  char line[256];
  std::snprintf(line, sizeof(line), "%-32s %10s %14s %14s %9s\n", "layer",
                "spans", "inclusive_ms", "self_ms", "share_%");
  table += line;
  for (const auto& [name, t] : totals) {
    const auto it = root_self.find(name);
    const double share = it == root_self.end() || root_self_sum <= 0
                             ? 0.0
                             : 100.0 * it->second / root_self_sum;
    std::snprintf(line, sizeof(line), "%-32s %10llu %14.3f %14.3f %9.2f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.inclusive_ns * 1e-6, t.self_ns * 1e-6, share);
    table += line;
  }
  return table;
}

}  // namespace sysbench
