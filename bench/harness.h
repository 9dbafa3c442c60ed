#ifndef AUTODC_BENCH_HARNESS_H_
#define AUTODC_BENCH_HARNESS_H_

// The compiled bench harness (successor of the header-only
// bench_util.h). Every bench_* binary is one BenchMain() call: the
// harness owns the argv contract, thread/seed setup, warmup/repeat
// timing, and the RESULT_JSON envelope, so a bench body is just the
// workload and a handful of Report() calls.
//
// Shared argv contract (every bench binary):
//   --repeats N    timing repetitions, min is reported   (default 5)
//   --warmup N     untimed warmup runs per timing        (default 1)
//   --threads N    pin the global pool to N threads      (default: leave
//                  the AUTODC_NUM_THREADS / hardware default in place)
//   --seed N       workload RNG seed                     (default: bench
//                  picks, usually 42)
//   --quick        shrink problem sizes (CI gate config)
//   --out DIR      write DIR/BENCH_<name>.json with every Report() row,
//                  the run envelope, and the final obs metrics snapshot;
//                  a "tolerances" object in the file it replaces is kept
//   --help         print usage
//
// Every Report() prints one `RESULT_JSON {...}` envelope line:
//   {"bench":…,"name":…,"git_sha":…,"threads":…,"isa":…,"repeats":…,
//    "quick":…,"wall_ms":…,"metrics":{…}}
// The same rows, grouped, land in the --out file — the unit
// tools/bench_check diffs against bench/baselines/.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"

namespace autodc::bench {

// The RESULT_JSON writer lives in src/common/json.h so the obs snapshot
// exporter and the benches share one escaping/number-formatting path
// (NaN/Inf metric values emit as `null`, never as invalid JSON).
using ::autodc::JsonEscape;
using ::autodc::JsonObject;

/// Prints a header box naming the experiment.
void PrintHeader(const std::string& experiment, const std::string& claim);

/// Fixed-width row printer: first cell 28 chars, rest 12.
void PrintRow(const std::vector<std::string>& cells);

inline std::string Fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtInt(size_t v) { return std::to_string(v); }

/// Wall-clock timer.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Wall-clock seconds of `fn()`, minimum over `reps` runs (minimum is
/// the standard noise-robust statistic for bench loops).
template <typename Fn>
double TimeSeconds(Fn&& fn, size_t reps = 1) {
  double best = 0.0;
  for (size_t r = 0; r < reps; ++r) {
    Timer t;
    fn();
    double s = t.Seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

/// Prints one `RESULT_JSON {...}` line; the prefix lets scripts grep the
/// machine-readable record out of the table output.
inline void PrintJsonLine(const JsonObject& o) {
  std::printf("RESULT_JSON %s\n", o.str().c_str());
}

/// Static description of one bench binary.
struct BenchSpec {
  std::string name;        ///< machine id; --out writes BENCH_<name>.json
  std::string experiment;  ///< header title line
  std::string claim;       ///< header body (the expected shape)
  uint64_t default_seed = 42;  ///< seed() when --seed is not given
};

/// One emitted result row: a named measurement with flat numeric
/// metrics — the unit bench_check compares.
struct BenchResult {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;
};

/// Per-run context handed to the bench body.
class Bench {
 public:
  size_t repeats() const { return repeats_; }
  size_t warmup() const { return warmup_; }
  /// Effective global-pool thread count for this run.
  size_t threads() const { return threads_; }
  uint64_t seed() const { return seed_; }
  bool quick() const { return quick_; }
  /// Problem-size switch: `full` normally, `quick_size` under --quick.
  size_t Size(size_t full, size_t quick_size) const {
    return quick_ ? quick_size : full;
  }

  /// Min-of-repeats wall milliseconds of `fn`, after warmup() untimed
  /// runs.
  template <typename Fn>
  double TimeMs(Fn&& fn) {
    for (size_t i = 0; i < warmup_; ++i) fn();
    return TimeSeconds(fn, repeats_) * 1e3;
  }

  /// Emits one RESULT_JSON envelope line and records the row for the
  /// --out file. Metric keys should be stable: bench_check joins
  /// baseline and current runs on (result name, metric name).
  void Report(const std::string& name,
              std::vector<std::pair<std::string, double>> metrics);

  const std::vector<BenchResult>& results() const { return results_; }

 private:
  friend int BenchMain(int argc, char** argv, const BenchSpec& spec,
                       const std::function<int(Bench&)>& body);
  explicit Bench(BenchSpec spec) : spec_(std::move(spec)) {}

  JsonObject Envelope() const;

  BenchSpec spec_;
  size_t repeats_ = 5;
  size_t warmup_ = 1;
  size_t threads_ = 1;
  uint64_t seed_ = 42;
  bool quick_ = false;
  std::string out_dir_;
  Timer run_timer_;
  std::vector<BenchResult> results_;
};

/// The git sha compiled into this binary (configure-time `git
/// rev-parse --short HEAD`, overridable at runtime via AUTODC_GIT_SHA).
std::string GitSha();

/// Parses argv, applies --threads, prints the header, runs `body`, and
/// writes the --out file. Returns body's exit code (2 on bad argv).
int BenchMain(int argc, char** argv, const BenchSpec& spec,
              const std::function<int(Bench&)>& body);

}  // namespace autodc::bench

#endif  // AUTODC_BENCH_HARNESS_H_
