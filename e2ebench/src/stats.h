#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

// Measurement arithmetic shared by every workload: medians, the
// percentile-with-support rule for tails, open-loop lateness accounting
// and the span rollup of a traced run. Pure functions over recorded
// samples, so e2ebench/tests/stats_test.cc checks them without a server.
namespace e2ebench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> v);

/// Nearest-rank percentile `p` in (0, 100]: the sample at 1-based rank
/// ceil(p/100 * n). 0 when empty.
double PercentileNearestRank(std::vector<double> v, double p);

/// A tail percentile together with the evidence behind it.
struct Tail {
  double value = 0.0;       ///< the percentile's sample value
  double percentile = 0.0;  ///< which percentile was reported
  size_t samples = 0;       ///< total samples
  size_t beyond = 0;        ///< samples strictly above its rank
};

/// The highest percentile that leaves at least `min_beyond` samples above
/// it: the sample at rank n - min_beyond, reported as percentile
/// 100 * rank / n. With n <= min_beyond there is none; the median is
/// reported with its short support, so callers must check `beyond`.
Tail TailWithSupport(const std::vector<double>& v, size_t min_beyond = 10);

/// Median over `slices` consecutive equal-count slices of `v` (in arrival
/// order) of each slice's nearest-rank percentile `p`. A burst of host
/// contention inflates the slices it lands in; the median over slices
/// keeps a burst shorter than half the run from deciding the figure.
/// `samples` and `beyond` describe one slice.
Tail SlicedPercentile(const std::vector<double>& v, size_t slices, double p);

/// Samples above the nearest rank of percentile `p` for `n` samples.
size_t SamplesBeyond(size_t n, double p);

/// Open-loop accounting for one rate phase. Every request has a due
/// time from the arrival schedule, the time the generator actually sent
/// it, and the time its completion was observed (all in nanoseconds on
/// one steady clock). Latency is measured from the due time, so a
/// generator or server stall charges every request that was due during
/// it; lateness (sent - due) is the generator's own delay.
class PhaseRecorder {
 public:
  explicit PhaseRecorder(double slo_ms) : slo_ms_(slo_ms) {}

  /// Records one request. `ok` is false for rejects and errors, which
  /// count as SLO misses whatever their latency.
  void Record(int64_t due_ns, int64_t sent_ns, int64_t done_ns, bool ok);

  size_t attempted() const { return latency_ms_.size(); }
  size_t failed() const { return failed_; }
  /// Requests that came back OK within the SLO.
  size_t slo_ok() const { return slo_ok_; }
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }

 private:
  double slo_ms_;
  std::vector<double> latency_ms_;
  std::vector<double> lateness_ms_;
  size_t failed_ = 0;
  size_t slo_ok_ = 0;
};

/// Total, self and call count of one span name.
struct SpanStat {
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus the time its direct children cover
  size_t count = 0;
};

/// Rolls drained spans up by name. A span's self time is its duration
/// minus the summed durations of its direct children (clamped at 0);
/// children recorded on other threads count too, so a parent that waits
/// on pool workers shows the wait as child time.
std::map<std::string, SpanStat> RollupSpans(
    const std::vector<autodc::obs::SpanRecord>& spans);

/// Quantile `q` in [0, 1] of a fixed-bucket histogram (upper bounds
/// `bounds`, counts with the overflow bucket last), interpolated linearly
/// inside the bucket holding the rank. 0 when empty.
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& counts, double q);

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
