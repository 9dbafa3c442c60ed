#include "e2ebench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace e2ebench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

size_t NearestRank(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double PercentileNearestRank(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[NearestRank(v.size(), p) - 1];
}

Tail TailWithSupport(const std::vector<double>& v, size_t min_beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  size_t n = sorted.size();
  size_t rank = n > min_beyond ? n - min_beyond : (n + 1) / 2;
  t.value = sorted[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = n - rank;
  return t;
}

Tail SlicedPercentile(const std::vector<double>& v, size_t slices,
                      double p) {
  Tail t;
  t.percentile = p;
  slices = std::clamp<size_t>(slices, 1, std::max<size_t>(v.size(), 1));
  size_t per = v.size() / slices;
  if (per == 0) return t;
  std::vector<double> values;
  for (size_t s = 0; s < slices; ++s) {
    values.push_back(PercentileNearestRank(
        std::vector<double>(v.begin() + s * per, v.begin() + (s + 1) * per),
        p));
  }
  t.value = Median(values);
  t.samples = per;
  t.beyond = SamplesBeyond(per, p);
  return t;
}

void PhaseRecorder::Record(int64_t due_ns, int64_t sent_ns, int64_t done_ns,
                           bool ok) {
  double latency = static_cast<double>(done_ns - due_ns) / 1e6;
  latency_ms_.push_back(latency);
  lateness_ms_.push_back(
      static_cast<double>(std::max<int64_t>(sent_ns - due_ns, 0)) / 1e6);
  if (!ok) {
    ++failed_;
  } else if (latency <= slo_ms_) {
    ++slo_ok_;
  }
}

std::map<std::string, SpanStat> RollupSpans(
    const std::vector<autodc::obs::SpanRecord>& spans) {
  std::unordered_map<uint64_t, uint64_t> child_us;
  for (const auto& s : spans) {
    if (s.parent_id != 0) child_us[s.parent_id] += s.duration_us;
  }
  std::map<std::string, SpanStat> out;
  for (const auto& s : spans) {
    SpanStat& st = out[s.name];
    auto it = child_us.find(s.id);
    uint64_t children = it == child_us.end() ? 0 : it->second;
    st.total_ms += static_cast<double>(s.duration_us) / 1e3;
    st.self_ms +=
        static_cast<double>(s.duration_us > children ? s.duration_us - children
                                                     : 0) /
        1e3;
    ++st.count;
  }
  return out;
}

double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& counts, double q) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0 || counts.empty()) return 0.0;
  double rank = q * static_cast<double>(total);
  double seen = 0.0;
  for (size_t b = 0; b < counts.size(); ++b) {
    double next = seen + static_cast<double>(counts[b]);
    if (next >= rank && counts[b] > 0) {
      double lo = b == 0 ? 0.0 : bounds[b - 1];
      // The overflow bucket has no upper bound: report its lower edge.
      if (b >= bounds.size()) return lo;
      double frac = (rank - seen) / static_cast<double>(counts[b]);
      return lo + std::clamp(frac, 0.0, 1.0) * (bounds[b] - lo);
    }
    seen = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace e2ebench
