#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

// Shared plumbing of the AutoDC end-to-end benchmark: run options, the
// metric catalogue (names and units, mirrored by BENCHMARK.json and
// checked against it by run.py), and the per-run report every workload
// fills.
namespace e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Global thread-pool size for every library call (curation, session
  /// builds). Fixed by the command in BENCHMARK.json.
  size_t threads = 2;
  /// Offered loads of the two serve_mixed open-loop phases, requests/s.
  double low_rps = 1000.0;
  double high_rps = 3000.0;
  /// Latency limit per workload for slo_ok_ratio, milliseconds.
  std::map<std::string, double> slo_ms;
  /// Scratch directory for generated inputs (deleted by run.py).
  std::string work_dir;
  /// Directory that keeps traced-run artifacts (Chrome traces).
  std::string out_dir;

  double Slo() const;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every timed run (--trace 0) reports all of them.
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics: every traced run (--trace 1) reports all of them;
/// a layer the workload never enters reports 0.
extern const std::vector<MetricDef> kPerLayer;

/// What one run measured and whether its outputs passed the checks.
class Report {
 public:
  /// Records a failed output check when `ok` is false.
  void Check(bool ok, const std::string& what);
  bool correct() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }

  void Set(const std::string& name, double value) { metrics_[name] = value; }
  const std::map<std::string, double>& metrics() const { return metrics_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::vector<std::string> problems_;
  std::map<std::string, double> metrics_;
};

/// The final result line: {"correct","attempted","failed","metrics"} with
/// exactly the metrics of `defs`, each as {"value", "unit"}. Returns an
/// empty string (and records a check failure) when a metric is missing
/// or not finite.
std::string ResultJson(Report* report, const std::vector<MetricDef>& defs);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Runs the calling thread on the k-th core it may use (round robin over
/// its affinity mask) until destroyed, then restores the mask. On a
/// shared VM one core can run 1.5x slower than another for seconds at a
/// time; moving the caller between repetitions samples every core
/// instead of whichever one the scheduler picked. Threads started while
/// it is alive inherit the pin, so it must not wrap thread creation
/// (such as a CurationServer's workers); the global pool starts earlier.
class OnCore {
 public:
  explicit OnCore(size_t k);
  ~OnCore();
  /// Cores in the calling thread's affinity mask (at least 1).
  static size_t Cores();
  OnCore(const OnCore&) = delete;
  OnCore& operator=(const OnCore&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

/// Peak resident set of this process (VmHWM), MB.
double PeakRssMb();

/// Bytes of a file, 0 when it cannot be read.
uint64_t FileBytes(const std::string& path);

int RunCurate(const Options& opt, Report* report);
int RunServeMixed(const Options& opt, Report* report);
int RunServeChurn(const Options& opt, Report* report);

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_H_
