// ANN retrieval bench (ROADMAP item 3): HNSW graph search vs the exact
// scan it replaces. Shape: on clustered embeddings the index answers
// top-10 queries an order of magnitude faster than the scan while
// keeping recall@10 >= 0.95; build time amortizes over a few thousand
// queries.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/ann/hnsw.h"
#include "src/common/rng.h"
#include "src/nn/kernels.h"

using namespace autodc;         // NOLINT
using namespace autodc::bench;  // NOLINT

namespace {

/// Exact top-k row ids for one query, (sim desc, id asc) ordered — the
/// recall reference and the timed baseline.
std::vector<size_t> ExactTopK(const float* q, const std::vector<float>& data,
                              const std::vector<double>& inv_norms, size_t n,
                              size_t dim, double q_inv, size_t k) {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double dot =
        nn::kernels::DotF32D(q, data.data() + i * dim, dim);
    scored.emplace_back(dot * q_inv * inv_norms[i], i);
  }
  size_t take = std::min(k, n);
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first ||
                             (a.first == b.first && a.second < b.second);
                    });
  std::vector<size_t> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchSpec spec;
  spec.name = "ann";
  spec.experiment = "HNSW retrieval vs exact scan (ROADMAP item 3)";
  spec.claim =
      "Graph search over clustered embeddings: >= 10x the exact scan's\n"
      "QPS at recall@10 >= 0.95; build cost amortizes within ~1k queries.";
  return BenchMain(argc, argv, spec, [](Bench& b) {
    const size_t n = b.Size(100000, 8000);
    const size_t dim = b.Size(128, 64);
    const size_t num_queries = b.Size(100, 50);
    const size_t k = 10;
    const size_t num_clusters = b.Size(100, 32);

    // Clustered data — the regime embeddings live in (random uniform
    // vectors make every neighbour list noise and flatter recall).
    Rng rng(b.seed());
    std::vector<float> centers(num_clusters * dim);
    for (float& x : centers) x = static_cast<float>(rng.Normal());
    std::vector<float> data(n * dim);
    std::vector<double> inv_norms(n);
    for (size_t i = 0; i < n; ++i) {
      size_t c = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(num_clusters) - 1));
      float* row = data.data() + i * dim;
      for (size_t d = 0; d < dim; ++d) {
        row[d] = centers[c * dim + d] +
                 static_cast<float>(rng.Normal(0.0, 0.3));
      }
      double sq = nn::kernels::SumSqF32(row, dim);
      inv_norms[i] = sq > 0.0 ? 1.0 / std::sqrt(sq) : 0.0;
    }
    std::vector<float> queries(num_queries * dim);
    std::vector<double> q_invs(num_queries);
    for (size_t i = 0; i < num_queries; ++i) {
      size_t c = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(num_clusters) - 1));
      float* q = queries.data() + i * dim;
      for (size_t d = 0; d < dim; ++d) {
        q[d] = centers[c * dim + d] + static_cast<float>(rng.Normal(0.0, 0.3));
      }
      double sq = nn::kernels::SumSqF32(q, dim);
      q_invs[i] = sq > 0.0 ? 1.0 / std::sqrt(sq) : 0.0;
    }

    ann::HnswConfig cfg;
    cfg.seed = b.seed();
    ann::HnswIndex index(dim, cfg);
    std::vector<const float*> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) rows.push_back(data.data() + i * dim);
    Timer build_timer;
    index.Build(rows);
    double build_ms = build_timer.Seconds() * 1e3;

    // Ground truth once (untimed), then timed exact + ANN query loops.
    std::vector<std::vector<size_t>> truth(num_queries);
    for (size_t i = 0; i < num_queries; ++i) {
      truth[i] = ExactTopK(queries.data() + i * dim, data, inv_norms, n, dim,
                           q_invs[i], k);
    }

    double exact_ms = b.TimeMs([&] {
      for (size_t i = 0; i < num_queries; ++i) {
        ExactTopK(queries.data() + i * dim, data, inv_norms, n, dim,
                  q_invs[i], k);
      }
    });
    // Untimed warmup walk so the first timed pass isn't paying the
    // graph's cold-cache cost (the int8 arm below gets the same).
    for (size_t i = 0; i < num_queries; ++i) {
      index.Search(queries.data() + i * dim, k);
    }
    std::vector<std::vector<ann::ScoredId>> ann_hits(num_queries);
    double ann_ms = b.TimeMs([&] {
      for (size_t i = 0; i < num_queries; ++i) {
        ann_hits[i] = index.Search(queries.data() + i * dim, k);
      }
    });

    double recall_sum = 0.0;
    for (size_t i = 0; i < num_queries; ++i) {
      size_t overlap = 0;
      for (const ann::ScoredId& hit : ann_hits[i]) {
        for (size_t t : truth[i]) {
          if (hit.id == t) {
            ++overlap;
            break;
          }
        }
      }
      recall_sum +=
          static_cast<double>(overlap) /
          static_cast<double>(std::min(k, truth[i].size()));
    }
    double recall = num_queries ? recall_sum / num_queries : 0.0;
    double qps_exact = exact_ms > 0.0 ? num_queries / (exact_ms / 1e3) : 0.0;
    double qps_ann = ann_ms > 0.0 ? num_queries / (ann_ms / 1e3) : 0.0;
    double speedup = ann_ms > 0.0 ? exact_ms / ann_ms : 0.0;

    // Low-precision arm (DESIGN.md §11): the same graph built over int8
    // rows. Distance evaluations run on quantized data (4x smaller, SIMD
    // integer dots); recall is still measured against the fp32 ground
    // truth, so quantization error shows up here, not in a side metric.
    ann::HnswConfig i8cfg = cfg;
    i8cfg.quant = nn::kernels::Quant::kInt8;
    ann::HnswIndex index_i8(dim, i8cfg);
    Timer build_i8_timer;
    index_i8.Build(rows);
    double build_i8_ms = build_i8_timer.Seconds() * 1e3;
    // Timed loop measures the full retrieval cost of a quantized graph:
    // over-fetch a small shortlist from it, then re-score the shortlist
    // in fp32 and keep the top-k.
    // The rescore is k+8 dot products per query — noise next to the
    // graph walk — and it is what recovers fp32-level recall.
    const size_t kExtra = 8;
    for (size_t i = 0; i < num_queries; ++i) {
      index_i8.Search(queries.data() + i * dim, k + kExtra);
    }
    std::vector<std::vector<ann::ScoredId>> i8_hits(num_queries);
    double i8_ms = b.TimeMs([&] {
      for (size_t i = 0; i < num_queries; ++i) {
        const float* q = queries.data() + i * dim;
        std::vector<ann::ScoredId> hits = index_i8.Search(q, k + kExtra);
        for (ann::ScoredId& hit : hits) {
          double dot = nn::kernels::DotF32D(q, data.data() + hit.id * dim,
                                            dim);
          hit.similarity = dot * q_invs[i] * inv_norms[hit.id];
        }
        std::sort(hits.begin(), hits.end(),
                  [](const ann::ScoredId& a, const ann::ScoredId& b2) {
                    return a.similarity > b2.similarity ||
                           (a.similarity == b2.similarity && a.id < b2.id);
                  });
        if (hits.size() > k) hits.resize(k);
        i8_hits[i] = std::move(hits);
      }
    });
    double recall_i8_sum = 0.0;
    for (size_t i = 0; i < num_queries; ++i) {
      size_t overlap = 0;
      for (const ann::ScoredId& hit : i8_hits[i]) {
        for (size_t t : truth[i]) {
          if (hit.id == t) {
            ++overlap;
            break;
          }
        }
      }
      recall_i8_sum +=
          static_cast<double>(overlap) /
          static_cast<double>(std::min(k, truth[i].size()));
    }
    double recall_i8 = num_queries ? recall_i8_sum / num_queries : 0.0;
    double qps_int8 = i8_ms > 0.0 ? num_queries / (i8_ms / 1e3) : 0.0;
    double speedup_int8 = i8_ms > 0.0 ? ann_ms / i8_ms : 0.0;
    double fp32_bytes = static_cast<double>(index.resident_bytes());
    double int8_bytes = static_cast<double>(index_i8.resident_bytes());

    PrintRow({"metric", "value"});
    PrintRow({"n / dim", FmtInt(n) + " / " + FmtInt(dim)});
    PrintRow({"build_ms", Fmt(build_ms, 1)});
    PrintRow({"edges", FmtInt(index.num_edges())});
    PrintRow({"qps_exact", Fmt(qps_exact, 0)});
    PrintRow({"qps_ann", Fmt(qps_ann, 0)});
    PrintRow({"speedup", Fmt(speedup, 1)});
    PrintRow({"recall_at_10", Fmt(recall, 3)});
    PrintRow({"qps_ann_int8", Fmt(qps_int8, 0)});
    PrintRow({"speedup_int8_vs_fp32", Fmt(speedup_int8, 2)});
    PrintRow({"recall_at_10_int8", Fmt(recall_i8, 3)});
    PrintRow({"fp32_resident_mb", Fmt(fp32_bytes / 1e6, 1)});
    PrintRow({"int8_resident_mb", Fmt(int8_bytes / 1e6, 1)});
    index.PublishStats();

    b.Report("build", {{"build_ms", build_ms},
                       {"nodes", static_cast<double>(index.size())},
                       {"edges", static_cast<double>(index.num_edges())}});
    b.Report("search", {{"qps_exact", qps_exact},
                        {"qps_ann", qps_ann},
                        {"speedup", speedup},
                        {"recall_at_10", recall}});
    b.Report("int8", {{"build_ms", build_i8_ms},
                      {"qps_ann_int8", qps_int8},
                      {"speedup_int8", speedup_int8},
                      {"recall_at_10_int8", recall_i8},
                      {"fp32_resident_bytes", fp32_bytes},
                      {"int8_resident_bytes", int8_bytes}});
    return 0;
  });
}
