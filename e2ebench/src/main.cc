// AutoDC end-to-end benchmark: one process per (workload, seed) run.
//
//   e2ebench --workload curate_dedup --seed 3 --seconds 24 --trace 0
//            --threads 4 --low-rps 2000 --high-rps 6000
//            --slo-ms curate_dedup:1400,curate_lake:1000,serve_mixed:2,...
//            --work-dir DIR --out-dir DIR
//
// Human-readable lines go to stdout first; the last stdout line is the
// result object. A failed output check prints the failures to stderr and
// exits 1 without a result. e2ebench/run.py builds this binary and is the
// command BENCHMARK.json names; see e2ebench/README.md.
#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "e2ebench/src/bench.h"
#include "src/common/parallel.h"
#include "src/obs/metrics.h"

namespace e2ebench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},          {"latency_ms", "ms"},
    {"tail_ms", "ms"},         {"capacity_rps", "1/s"},
    {"slo_ok_ratio", "ratio"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"core.stage.representation_ms", "ms"},
    {"core.stage.discovery_ms", "ms"},
    {"core.stage.dedup_ms", "ms"},
    {"core.stage.repair_ms", "ms"},
    {"core.stage.impute_ms", "ms"},
    {"core.span_coverage", "ratio"},
    {"core.entity_count_err", "ratio"},
    {"core.null_fraction_out", "ratio"},
    {"embedding.sgns_ms", "ms"},
    {"embedding.sgns_pairs", "count"},
    {"discovery.index_ms", "ms"},
    {"discovery.search_ms", "ms"},
    {"discovery.map_schema_ms", "ms"},
    {"discovery.tables_merged", "count"},
    {"er.embed_rows_ms", "ms"},
    {"er.block_ms", "ms"},
    {"er.candidates", "count"},
    {"er.weak_label_ms", "ms"},
    {"er.train_ms", "ms"},
    {"er.match_ms", "ms"},
    {"er.match_us_per_candidate", "us"},
    {"er.fuse_ms", "ms"},
    {"er.match_yield", "ratio"},
    {"er.match_precision", "ratio"},
    {"er.match_recall", "ratio"},
    {"er.replay_coverage", "ratio"},
    {"er.replay_rows_match", "bool"},
    {"text.jaccard_calls", "count"},
    {"cleaning.repair_ms", "ms"},
    {"cleaning.repaired_cells", "count"},
    {"cleaning.dae_ms", "ms"},
    {"cleaning.imputed_cells", "count"},
    {"cleaning.knn_impute_us", "us"},
    {"nn.trainer_batch_ms_p50", "ms"},
    {"nn.gemm_panels", "count"},
    {"nn.dot_calls", "count"},
    {"nn.tensor_pool_hit_ratio", "ratio"},
    {"nn.score_us", "us"},
    {"nn.score_batched_us_per_req", "us"},
    {"common.pool_busy_ms", "ms"},
    {"common.pool_queue_wait_ms_p99", "ms"},
    {"common.pool_inline_ratio", "ratio"},
    {"data.ingest_ms", "ms"},
    {"data.input_bytes", "bytes"},
    {"data.dict_hit_ratio", "ratio"},
    {"data.fingerprint_ms", "ms"},
    {"ann.nearest_us", "us"},
    {"ann.distance_evals_per_search", "count"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.reject_ratio", "ratio"},
    {"serve.fail_ratio", "ratio"},
    {"serve.session_build_ms", "ms"},
    {"serve.session_hit_ratio", "ratio"},
    {"serve.refresh_ms", "ms"},
    {"serve.outlier_us", "us"},
    {"serve.latency_high_ms", "ms"},
    {"serve.tail_high_ms", "ms"},
    {"serve.match_precision", "ratio"},
    {"serve.match_recall", "ratio"},
    {"gen.late_ms_p99", "ms"},
    {"gen.late_ms_max", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.spans_dropped", "count"},
    {"oracle_agree", "ratio"},
};

double Options::Slo() const {
  auto it = slo_ms.find(workload);
  return it == slo_ms.end() ? 0.0 : it->second;
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) problems_.push_back(what);
}

std::string ResultJson(Report* report, const std::vector<MetricDef>& defs) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (report->correct() ? "true" : "false")
     << ", \"attempted\": " << report->attempted
     << ", \"failed\": " << report->failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    auto it = report->metrics().find(d.name);
    if (it == report->metrics().end() || !std::isfinite(it->second)) {
      report->Check(false, std::string("metric not measured: ") + d.name);
      return "";
    }
    os << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
       << it->second << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

OnCore::OnCore(size_t k) {
  active_ =
      pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) == 0;
  if (!active_ || CPU_COUNT(&saved_) < 2) return;
  size_t want = k % static_cast<size_t>(CPU_COUNT(&saved_));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || want-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
}

size_t OnCore::Cores() {
  cpu_set_t set;
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

OnCore::~OnCore() {
  if (active_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

namespace {

bool ParseSlo(const std::string& spec, std::map<std::string, double>* out) {
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    size_t colon = item.find(':');
    if (colon == std::string::npos) return false;
    char* end = nullptr;
    double v = std::strtod(item.c_str() + colon + 1, &end);
    if (end == item.c_str() + colon + 1 || !(v > 0)) return false;
    (*out)[item.substr(0, colon)] = v;
  }
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr, "e2ebench: %s\n", why);
  return 2;
}

}  // namespace

}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;  // NOLINT
  Options opt;
  std::string slo_spec;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--threads") {
      opt.threads = std::strtoul(v.c_str(), &end, 10);
    } else if (a == "--low-rps") {
      opt.low_rps = std::strtod(v.c_str(), &end);
    } else if (a == "--high-rps") {
      opt.high_rps = std::strtod(v.c_str(), &end);
    } else if (a == "--slo-ms") {
      slo_spec = v;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + a).c_str());
    }
  }
  if (opt.work_dir.empty() || opt.out_dir.empty()) {
    return Usage("--work-dir and --out-dir are required");
  }
  if (!(opt.seconds > 0) || opt.threads == 0 || !(opt.low_rps > 0) ||
      !(opt.high_rps > opt.low_rps)) {
    return Usage("--seconds, --threads and the rates must be positive, "
                 "with --high-rps above --low-rps");
  }
  if (!ParseSlo(slo_spec, &opt.slo_ms) || opt.Slo() <= 0) {
    return Usage("--slo-ms must give a positive limit for the workload");
  }

  autodc::SetNumThreads(opt.threads);
  // Timed runs measure with the observability layer paused; the traced
  // run switches it on around the calls it attributes.
  autodc::obs::SetEnabled(false);

  Report report;
  int rc = 0;
  if (opt.workload == "curate_dedup" || opt.workload == "curate_lake") {
    rc = RunCurate(opt, &report);
  } else if (opt.workload == "serve_mixed") {
    rc = RunServeMixed(opt, &report);
  } else if (opt.workload == "serve_churn") {
    rc = RunServeChurn(opt, &report);
  } else {
    return Usage(("unknown workload " + opt.workload).c_str());
  }
  if (rc != 0) return rc;

  std::string line = ResultJson(&report, opt.trace ? kPerLayer : kEndToEnd);
  if (!report.correct()) {
    for (const std::string& p : report.problems()) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
    }
    return 1;
  }
  std::fflush(stdout);
  std::printf("%s\n", line.c_str());
  return 0;
}
