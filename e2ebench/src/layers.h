#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "e2ebench/src/bench.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

// Traced-run helpers: reading the counters the library already exports
// from obs::MetricsRegistry::Global(), and reporting the span rollup and
// Chrome trace of a run.
namespace e2ebench {

/// Counter value, 0 when the counter was never registered.
double CounterValue(const autodc::obs::MetricsSnapshot& s,
                    const std::string& name);
/// Sum of every counter whose name starts with `prefix` and contains
/// `infix` (kernels.<op>.scalar and kernels.<op>.simd both count).
double CounterSum(const autodc::obs::MetricsSnapshot& s,
                  const std::string& prefix, const std::string& infix = "");
double GaugeValue(const autodc::obs::MetricsSnapshot& s,
                  const std::string& name);
/// Interpolated quantile of a registered histogram, 0 when absent/empty.
double HistQuantile(const autodc::obs::MetricsSnapshot& s,
                    const std::string& name, double q);
/// Quantile of what a histogram recorded between two snapshots.
double HistDeltaQuantile(const autodc::obs::MetricsSnapshot& before,
                         const autodc::obs::MetricsSnapshot& after,
                         const std::string& name, double q);
/// a / (a + b), 0 when both are 0.
double ShareOf(double a, double b);

/// Thread-pool, kernel and tensor-pool layer metrics (`common.*`, `nn.*`
/// counts) from a snapshot covering `calls` operations.
void SetRuntimeLayers(const autodc::obs::MetricsSnapshot& s, double calls,
                      Report* report);

/// Prints the total/self/count table of `spans`, writes them as a Chrome
/// trace to <out_dir>/trace-<workload>-<seed>.json and records
/// obs.spans_dropped (which must be 0).
void ReportSpans(const Options& opt,
                 const std::vector<autodc::obs::SpanRecord>& spans,
                 Report* report);

/// Every per-layer metric, 0 until a workload measures it.
void ZeroPerLayer(Report* report);

}  // namespace e2ebench

#endif  // E2EBENCH_LAYERS_H_
