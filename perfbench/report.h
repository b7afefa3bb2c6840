// Turns a workload's measurements into the benchmark's metrics and
// prints them: one "metric <name> <value> <unit>" line each, then the
// result object as the last line of standard output.
#pragma once

#include <vector>

#include "bench.h"

namespace bench {

/// Linear-interpolation quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q);

/// End-to-end metrics of the untraced passes.
std::vector<Metric> end_to_end_metrics(const Measured& m);

/// Per-layer metrics of a traced run: span figures, the workload's
/// exact counts and the tracing overhead, in the catalogue's order.
std::vector<Metric> per_layer_metrics(const Measured& m, const Tracer& t);

void print_result(const Options& opt, const Measured& m, const Checks& checks,
                  const std::vector<Metric>& metrics);

}  // namespace bench
