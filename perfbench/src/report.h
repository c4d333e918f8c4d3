// Metric records, the per-layer share table, and the one-line JSON result.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "layer_trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Median of `values` (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

// The traced run's wall-time shares: one entry per layer (its self time over the
// traced wall), "sim.residual" and "trace.cost" (the tracer's own cost).
// They sum to 1 up to floating-point rounding.
struct Share {
  std::string name;
  double share = 0.0;
};
std::vector<Share> LayerShares(const LayerTracer& tracer);

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
// Values are printed with every digit needed to round-trip.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
