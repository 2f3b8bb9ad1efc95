// Named metric values and the summary statistics the benchmark reports.

#ifndef SIMPUSH_BENCH_E2E_METRICS_H_
#define SIMPUSH_BENCH_E2E_METRICS_H_

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <vector>

#include "serve/json.h"
#include "stack.h"

namespace simpush {
namespace bench_e2e {

/// One reported number: printed as `name value unit`.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Nearest-rank quantile of an ascending-sorted sample.
inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[static_cast<size_t>(q *
                                    static_cast<double>(sorted.size() - 1))];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// num / den, or 0 when nothing was counted.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Writes {"name": {"value": v, "unit": u}, ...}.
inline void WriteMetrics(serve::JsonWriter* writer,
                         const std::vector<Metric>& metrics) {
  writer->BeginObject();
  for (const Metric& metric : metrics) {
    writer->Key(metric.name);
    writer->BeginObject();
    writer->Key("value");
    writer->Double(metric.value);
    writer->Key("unit");
    writer->String(metric.unit);
    writer->EndObject();
  }
  writer->EndObject();
}

}  // namespace bench_e2e
}  // namespace simpush

#endif  // SIMPUSH_BENCH_E2E_METRICS_H_
