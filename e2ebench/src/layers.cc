#include "e2ebench/src/layers.h"

#include <cstdio>
#include <fstream>

#include "e2ebench/src/stats.h"
#include "src/obs/trace_export.h"

namespace e2ebench {

namespace obs = autodc::obs;

double CounterValue(const obs::MetricsSnapshot& s, const std::string& name) {
  const obs::CounterSample* c = s.FindCounter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value);
}

double CounterSum(const obs::MetricsSnapshot& s, const std::string& prefix,
                  const std::string& infix) {
  double total = 0.0;
  for (const obs::CounterSample& c : s.counters) {
    if (c.name.rfind(prefix, 0) == 0 &&
        c.name.find(infix, prefix.size()) != std::string::npos) {
      total += static_cast<double>(c.value);
    }
  }
  return total;
}

double GaugeValue(const obs::MetricsSnapshot& s, const std::string& name) {
  const obs::GaugeSample* g = s.FindGauge(name);
  return g == nullptr ? 0.0 : g->value;
}

double HistQuantile(const obs::MetricsSnapshot& s, const std::string& name,
                    double q) {
  const obs::HistogramSample* h = s.FindHistogram(name);
  return h == nullptr ? 0.0 : HistogramQuantile(h->bounds, h->counts, q);
}

double HistDeltaQuantile(const obs::MetricsSnapshot& before,
                         const obs::MetricsSnapshot& after,
                         const std::string& name, double q) {
  const obs::HistogramSample* a = after.FindHistogram(name);
  if (a == nullptr) return 0.0;
  std::vector<uint64_t> counts = a->counts;
  const obs::HistogramSample* b = before.FindHistogram(name);
  if (b != nullptr && b->counts.size() == counts.size()) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] -= b->counts[i];
  }
  return HistogramQuantile(a->bounds, counts, q);
}

double ShareOf(double a, double b) { return a + b > 0 ? a / (a + b) : 0.0; }

void SetRuntimeLayers(const obs::MetricsSnapshot& s, double calls,
                      Report* report) {
  double per = calls > 0 ? 1.0 / calls : 0.0;
  report->Set("common.pool_busy_ms",
              CounterValue(s, "threadpool.busy_us") / 1e3 * per);
  report->Set("common.pool_queue_wait_ms_p99",
              HistQuantile(s, "threadpool.queue_wait_ms", 0.99));
  report->Set("common.pool_inline_ratio",
              ShareOf(CounterValue(s, "parallel.for_inline"),
                      CounterValue(s, "parallel.for_pooled")));
  report->Set("nn.trainer_batch_ms_p50",
              HistQuantile(s, "trainer.batch_ms", 0.5));
  report->Set("nn.gemm_panels", CounterSum(s, "kernels.gemm", "panel") * per);
  report->Set("nn.dot_calls", CounterSum(s, "kernels.dot_f32") * per);
  report->Set("nn.tensor_pool_hit_ratio",
              ShareOf(GaugeValue(s, "tensor_pool.hits"),
                      GaugeValue(s, "tensor_pool.misses")));
  report->Set("data.dict_hit_ratio",
              ShareOf(CounterValue(s, "data.dict_hits"),
                      CounterValue(s, "data.dict_misses")));
}

void ReportSpans(const Options& opt,
                 const std::vector<obs::SpanRecord>& spans, Report* report) {
  std::printf("span rollup (%zu spans):\n  %-34s %12s %12s %8s\n",
              spans.size(), "span", "total_ms", "self_ms", "count");
  for (const auto& [name, st] : RollupSpans(spans)) {
    std::printf("  %-34s %12.3f %12.3f %8zu\n", name.c_str(), st.total_ms,
                st.self_ms, st.count);
  }
  uint64_t dropped = obs::SpansDropped();
  std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                     std::to_string(opt.seed) + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << obs::FormatChromeTrace(spans, dropped);
  report->Check(out.good(), "cannot write trace " + path);
  std::printf("chrome trace: %s\n", path.c_str());
  report->Set("obs.spans_dropped", static_cast<double>(dropped));
  report->Check(dropped == 0, "traced run dropped spans");
}

void ZeroPerLayer(Report* report) {
  for (const MetricDef& d : kPerLayer) report->Set(d.name, 0.0);
}

}  // namespace e2ebench
