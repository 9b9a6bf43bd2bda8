#ifndef QPE_SYSBENCH_TRACE_H_
#define QPE_SYSBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions: name,
// start, end, parent span and request id. They stay in memory until the
// run ends and are then written out as JSON lines, together with a
// per-layer self-time table (a span's duration minus the part covered by
// its children).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace sysbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root
    uint64_t request = 0;
  };

  // Per-name totals over every recorded span.
  struct LayerTotals {
    uint64_t count = 0;
    double inclusive_ns = 0;
    double self_ns = 0;
  };

  // A disabled recorder records nothing; Span scopes over it cost one
  // branch, which is how the untraced replay passes run the same calls.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index or -1.
  int Begin(const char* name, uint64_t request);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, LayerTotals> Totals() const;

  // Writes one JSON object per span to `path`; false on IO failure.
  bool WriteSpans(const std::string& path) const;
  // The self-time table: per span name, count, inclusive and self time, and
  // its share of all self time under root spans named `root_name`.
  std::string SelfTimeTable(const std::string& root_name) const;

 private:
  // Per span: the summed duration of its direct children.
  std::vector<double> ChildNanos() const;

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request)
      : recorder_(recorder), index_(recorder->Begin(name, request)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace sysbench

#endif  // QPE_SYSBENCH_TRACE_H_
