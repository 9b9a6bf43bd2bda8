#include "common.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace sysbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

WindowFigures FastestQuarterFigures(const std::vector<double>& done_s,
                                    const std::vector<double>& latency_ms,
                                    double window_s) {
  std::vector<std::vector<double>> slices(kSlices);
  const double width = window_s / kSlices;
  for (size_t i = 0; i < done_s.size() && i < latency_ms.size(); ++i) {
    const int k = std::clamp(static_cast<int>(done_s[i] / width), 0, kSlices - 1);
    slices[k].push_back(latency_ms[i]);
  }
  std::stable_sort(slices.begin(), slices.end(),
                   [](const auto& a, const auto& b) { return a.size() > b.size(); });
  const int kept = kSlices / 4;
  std::vector<double> pooled;
  for (int k = 0; k < kept; ++k) {
    pooled.insert(pooled.end(), slices[k].begin(), slices[k].end());
  }
  WindowFigures f;
  f.ops_per_s = static_cast<double>(pooled.size()) / (width * kept);
  f.p50_ms = Quantile(pooled, 0.50);
  f.p95_ms = Quantile(pooled, 0.95);
  return f;
}

void PinThread(int tid, int cpu) {
  if (sysconf(_SC_NPROCESSORS_ONLN) < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  ok_ = false;
  // Cap the log: one systematic fault would otherwise print per operation.
  if (++failures_ <= 20) std::cerr << "CHECK FAILED: " << what << "\n";
}

void PrintStamp(const std::string& key, const std::string& value) {
  std::cout << "# " << key << ": " << value << "\n";
}

void PrintResult(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    // Non-finite values are not JSON; they can only come from a broken
    // measurement, which the correctness flag already reports.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace sysbench
