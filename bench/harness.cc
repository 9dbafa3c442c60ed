#include "bench/harness.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/env.h"
#include "src/common/json_parse.h"
#include "src/common/parallel.h"
#include "src/nn/kernels.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"

#ifndef AUTODC_GIT_SHA
#define AUTODC_GIT_SHA "unknown"
#endif

namespace autodc::bench {

void PrintHeader(const std::string& experiment, const std::string& claim) {
  std::printf(
      "\n==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", claim.c_str());
  std::printf(
      "==============================================================\n");
}

void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf(i == 0 ? "%-28s" : "%12s", cells[i].c_str());
  }
  std::printf("\n");
}

std::string GitSha() { return EnvString("AUTODC_GIT_SHA", AUTODC_GIT_SHA); }

JsonObject Bench::Envelope() const {
  JsonObject o;
  o.Set("bench", spec_.name)
      .Set("git_sha", GitSha())
      .Set("threads", threads_)
      .Set("isa", std::string(nn::kernels::ActiveIsaName()))
      .Set("repeats", repeats_)
      .SetRaw("quick", quick_ ? "true" : "false");
  return o;
}

void Bench::Report(const std::string& name,
                   std::vector<std::pair<std::string, double>> metrics) {
  JsonObject m;
  for (const auto& [key, value] : metrics) m.Set(key, value);
  JsonObject line = Envelope();
  line.Set("name", name)
      .Set("wall_ms", run_timer_.Seconds() * 1e3)
      .SetRaw("metrics", m.str());
  PrintJsonLine(line);
  results_.push_back(BenchResult{name, std::move(metrics)});
}

namespace {

void PrintUsage(const BenchSpec& spec, std::FILE* out) {
  std::fprintf(
      out,
      "usage: bench_%s [--repeats N] [--warmup N] [--threads N] [--seed N]\n"
      "                [--quick] [--out DIR]\n"
      "%s\n",
      spec.name.c_str(), spec.experiment.c_str());
}

bool ParseCount(const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

/// The hand-written "tolerances" object of the results file already at
/// `path`, re-serialized; empty when there is none. Regenerating a
/// baseline with --out keeps it, so its gates never loosen silently.
std::string KeptTolerances(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream text;
  text << in.rdbuf();
  Result<JsonValue> doc = ParseJson(text.str());
  if (!doc.ok()) {
    std::fprintf(stderr, "warning: '%s' is not valid JSON (%s); its "
                 "tolerances are not kept\n", path.c_str(),
                 doc.status().message().c_str());
    return "";
  }
  const JsonValue* tolerances = doc.ValueOrDie().Find("tolerances");
  if (tolerances == nullptr || !tolerances->is_object()) return "";
  JsonObject kept;
  for (const auto& [metric, band] : tolerances->object) {
    if (band.is_number()) kept.Set(metric, band.number_value);
  }
  return kept.str();
}

bool WriteResultsFile(const Bench& bench, const BenchSpec& spec,
                      const JsonObject& envelope, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string path = dir + "/BENCH_" + spec.name + ".json";
  std::string rows = "[";
  for (size_t i = 0; i < bench.results().size(); ++i) {
    const BenchResult& r = bench.results()[i];
    if (i > 0) rows += ",";
    JsonObject m;
    for (const auto& [key, value] : r.metrics) m.Set(key, value);
    JsonObject row;
    row.Set("name", r.name).SetRaw("metrics", m.str());
    rows += row.str();
  }
  rows += "]";
  JsonObject doc = envelope;
  doc.SetRaw("results", rows)
      .SetRaw("obs",
              obs::FormatJson(obs::MetricsRegistry::Global().Snapshot()));
  std::string tolerances = KeptTolerances(path);
  if (!tolerances.empty()) doc.SetRaw("tolerances", tolerances);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_%s: cannot write '%s'\n", spec.name.c_str(),
                 path.c_str());
    return false;
  }
  out << doc.str() << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int BenchMain(int argc, char** argv, const BenchSpec& spec,
              const std::function<int(Bench&)>& body) {
  Bench bench(spec);
  bench.seed_ = spec.default_seed;
  bool pin_threads = false;
  uint64_t pin_count = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](uint64_t* out) {
      if (i + 1 >= argc || !ParseCount(argv[++i], out)) {
        std::fprintf(stderr, "bench_%s: %s needs a numeric argument\n",
                     spec.name.c_str(), arg.c_str());
        return false;
      }
      return true;
    };
    uint64_t v = 0;
    if (arg == "--repeats") {
      if (!next(&v) || v == 0) return 2;
      bench.repeats_ = static_cast<size_t>(v);
    } else if (arg == "--warmup") {
      if (!next(&v)) return 2;
      bench.warmup_ = static_cast<size_t>(v);
    } else if (arg == "--threads") {
      if (!next(&v) || v == 0) return 2;
      pin_threads = true;
      pin_count = v;
    } else if (arg == "--seed") {
      if (!next(&v)) return 2;
      bench.seed_ = v;
    } else if (arg == "--quick") {
      bench.quick_ = true;
    } else if (arg == "--out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_%s: --out needs a directory\n",
                     spec.name.c_str());
        return 2;
      }
      bench.out_dir_ = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(spec, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "bench_%s: unknown argument '%s'\n",
                   spec.name.c_str(), arg.c_str());
      PrintUsage(spec, stderr);
      return 2;
    }
  }

  if (pin_threads) SetNumThreads(static_cast<size_t>(pin_count));
  bench.threads_ = NumThreads();

  PrintHeader(spec.experiment, spec.claim);
  bench.run_timer_.Reset();
  int rc = body(bench);

  if (rc == 0 && !bench.out_dir_.empty()) {
    JsonObject envelope = bench.Envelope();
    envelope.Set("wall_ms", bench.run_timer_.Seconds() * 1e3);
    if (!WriteResultsFile(bench, spec, envelope, bench.out_dir_)) rc = 1;
  }
  return rc;
}

}  // namespace autodc::bench
