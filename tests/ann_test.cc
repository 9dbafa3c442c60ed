// Tests for src/ann (HNSW index) and its EmbeddingStore integration:
// recall against the exact scan, bulk/incremental equivalence, seeded
// determinism, degenerate inputs, store copy/move semantics, and the
// parallel build + concurrent search and lookup paths the TSan leg
// exercises (`ctest -L ann`).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/ann/hnsw.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/embedding/embedding_store.h"
#include "src/nn/kernels.h"

namespace autodc::ann {
namespace {

/// Clustered vectors — the geometry embeddings actually have. Pure
/// uniform noise has no neighbourhood structure and makes recall
/// meaningless as a regression signal.
std::vector<std::vector<float>> ClusteredVectors(size_t n, size_t dim,
                                                 size_t clusters,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(clusters);
  for (auto& c : centers) {
    c.resize(dim);
    for (float& x : c) x = static_cast<float>(rng.Normal());
  }
  std::vector<std::vector<float>> out(n);
  for (auto& v : out) {
    const std::vector<float>& c =
        centers[static_cast<size_t>(rng.UniformInt(0, clusters - 1))];
    v.resize(dim);
    for (size_t d = 0; d < dim; ++d) {
      v[d] = c[d] + static_cast<float>(rng.Normal(0.0, 0.3));
    }
  }
  return out;
}

std::vector<const float*> RowPtrs(const std::vector<std::vector<float>>& v) {
  std::vector<const float*> rows;
  rows.reserve(v.size());
  for (const auto& x : v) rows.push_back(x.data());
  return rows;
}

/// Exact top-k ids by cosine, (sim desc, id asc) — the recall reference.
std::vector<size_t> ExactTopK(const float* q,
                              const std::vector<std::vector<float>>& data,
                              size_t k) {
  std::vector<std::pair<double, size_t>> scored;
  for (size_t i = 0; i < data.size(); ++i) {
    scored.emplace_back(
        nn::kernels::CosineF32(q, data[i].data(), data[i].size()), i);
  }
  size_t take = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first ||
                             (a.first == b.first && a.second < b.second);
                    });
  std::vector<size_t> out;
  for (size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

TEST(HnswIndexTest, RecallAtTenIsAtLeast95OnClusteredData) {
  const size_t n = 2000, dim = 32, k = 10;
  auto data = ClusteredVectors(n, dim, 40, 123);
  HnswIndex index(dim);
  index.Build(RowPtrs(data));
  ASSERT_EQ(index.size(), n);

  auto queries = ClusteredVectors(60, dim, 40, 999);
  double recall_sum = 0.0;
  for (const auto& q : queries) {
    std::vector<size_t> truth = ExactTopK(q.data(), data, k);
    std::vector<ScoredId> hits = index.Search(q.data(), k);
    size_t overlap = 0;
    for (const ScoredId& h : hits) {
      if (std::find(truth.begin(), truth.end(), h.id) != truth.end()) {
        ++overlap;
      }
    }
    recall_sum += static_cast<double>(overlap) / static_cast<double>(k);
  }
  EXPECT_GE(recall_sum / queries.size(), 0.95);
}

TEST(HnswIndexTest, IncrementalAddEqualsBulkBuildWithinSequentialPrefix) {
  // Build() inserts one-by-one while the graph is inside
  // sequential_prefix, so the two construction paths must agree
  // exactly there.
  const size_t n = 600, dim = 16;
  auto data = ClusteredVectors(n, dim, 12, 7);
  HnswIndex bulk(dim);
  bulk.Build(RowPtrs(data));
  HnswIndex incremental(dim);
  for (const auto& v : data) incremental.Add(v.data());
  ASSERT_EQ(bulk.size(), incremental.size());
  EXPECT_EQ(bulk.num_edges(), incremental.num_edges());
  EXPECT_EQ(bulk.max_level(), incremental.max_level());

  auto queries = ClusteredVectors(20, dim, 12, 77);
  for (const auto& q : queries) {
    std::vector<ScoredId> a = bulk.Search(q.data(), 5);
    std::vector<ScoredId> b = incremental.Search(q.data(), 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_DOUBLE_EQ(a[i].similarity, b[i].similarity);
    }
  }
}

TEST(HnswIndexTest, SameSeedSameDataGivesIdenticalIndexAndResults) {
  const size_t n = 1500, dim = 24;  // past sequential_prefix: batched path
  auto data = ClusteredVectors(n, dim, 25, 42);
  HnswIndex a(dim), b(dim);
  a.Build(RowPtrs(data));
  b.Build(RowPtrs(data));
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.max_level(), b.max_level());
  auto queries = ClusteredVectors(15, dim, 25, 4242);
  for (const auto& q : queries) {
    std::vector<ScoredId> ra = a.Search(q.data(), 8);
    std::vector<ScoredId> rb = b.Search(q.data(), 8);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id);
      EXPECT_DOUBLE_EQ(ra[i].similarity, rb[i].similarity);
    }
  }
}

TEST(HnswIndexTest, EmptyIndexReturnsNothing) {
  HnswIndex index(8);
  std::vector<float> q(8, 1.0f);
  EXPECT_TRUE(index.Search(q.data(), 5).empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.max_level(), -1);
}

TEST(HnswIndexTest, SingleElementAndKLargerThanN) {
  HnswIndex index(4);
  std::vector<float> v = {1.0f, 0.0f, 0.0f, 0.0f};
  index.Add(v.data());
  std::vector<float> q = {0.5f, 0.5f, 0.0f, 0.0f};
  std::vector<ScoredId> hits = index.Search(q.data(), 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_NEAR(hits[0].similarity, 1.0 / std::sqrt(2.0), 1e-6);
}

TEST(HnswIndexTest, DuplicateVectorsTieBreakByLowerId) {
  HnswIndex index(3);
  std::vector<float> v = {1.0f, 2.0f, 3.0f};
  std::vector<float> other = {-1.0f, 0.0f, 1.0f};
  index.Add(v.data());
  index.Add(other.data());
  index.Add(v.data());  // exact duplicate of id 0
  std::vector<ScoredId> hits = index.Search(v.data(), 3);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].id, 0u);  // ties: lower id first
  EXPECT_EQ(hits[1].id, 2u);
  EXPECT_DOUBLE_EQ(hits[0].similarity, hits[1].similarity);
  EXPECT_EQ(hits[2].id, 1u);
}

TEST(HnswIndexTest, ZeroNormRowsAndQueriesScoreZero) {
  HnswIndex index(4);
  std::vector<float> zero(4, 0.0f);
  std::vector<float> unit = {1.0f, 0.0f, 0.0f, 0.0f};
  index.Add(zero.data());
  index.Add(unit.data());
  std::vector<ScoredId> hits = index.Search(unit.data(), 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_DOUBLE_EQ(hits[1].similarity, 0.0);
  // A zero query matches nothing meaningfully but must not crash.
  std::vector<ScoredId> zhits = index.Search(zero.data(), 2);
  EXPECT_EQ(zhits.size(), 2u);
}

TEST(HnswIndexTest, ParallelBuildThenConcurrentSearches) {
  // Past sequential_prefix so batched (parallel) construction runs,
  // then hammer Search from the pool — the TSan leg's target.
  const size_t n = 2000, dim = 16;
  auto data = ClusteredVectors(n, dim, 30, 11);
  HnswIndex index(dim);
  index.Build(RowPtrs(data));
  auto queries = ClusteredVectors(64, dim, 30, 1111);
  std::vector<size_t> top_ids(queries.size());
  ParallelFor(0, queries.size(), 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      std::vector<ScoredId> hits = index.Search(queries[i].data(), 5);
      top_ids[i] = hits.empty() ? n : hits[0].id;
    }
  });
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<ScoredId> hits = index.Search(queries[i].data(), 5);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(top_ids[i], hits[0].id);
  }
}

TEST(EmbeddingStoreAnnTest, EnableAnnMatchesExactOnTopNeighbours) {
  const size_t n = 1200, dim = 16;
  auto data = ClusteredVectors(n, dim, 20, 5);
  embedding::EmbeddingStore store(dim);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add("k" + std::to_string(i), data[i]).ok());
  }
  auto queries = ClusteredVectors(25, dim, 20, 55);
  std::vector<std::vector<embedding::Neighbor>> exact;
  for (const auto& q : queries) exact.push_back(store.NearestToVector(q, 10));

  ASSERT_TRUE(store.EnableAnn().ok());
  ASSERT_TRUE(store.AnnActive());
  double recall_sum = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<embedding::Neighbor> approx =
        store.NearestToVector(queries[i], 10);
    ASSERT_EQ(approx.size(), exact[i].size());
    size_t overlap = 0;
    for (const auto& a : approx) {
      for (const auto& e : exact[i]) {
        if (a.key == e.key) {
          // Shared hits carry the exact path's similarity bit-for-bit.
          EXPECT_DOUBLE_EQ(a.similarity, e.similarity);
          ++overlap;
          break;
        }
      }
    }
    recall_sum += static_cast<double>(overlap) / exact[i].size();
  }
  EXPECT_GE(recall_sum / queries.size(), 0.95);
}

TEST(EmbeddingStoreAnnTest, ExclusionsNeverSurfaceOnTheAnnPath) {
  const size_t n = 1200, dim = 12;
  auto data = ClusteredVectors(n, dim, 15, 9);
  embedding::EmbeddingStore store(dim);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add("k" + std::to_string(i), data[i]).ok());
  }
  ASSERT_TRUE(store.EnableAnn().ok());
  // Nearest(key) excludes the key itself even though its own vector is
  // the best match in the index.
  auto result = store.Nearest("k7", 5);
  ASSERT_TRUE(result.ok());
  for (const auto& nb : result.ValueOrDie()) EXPECT_NE(nb.key, "k7");
}

TEST(EmbeddingStoreAnnTest, OverwriteInvalidatesIndexAndAppendKeepsItLive) {
  const size_t n = 1100, dim = 8;
  auto data = ClusteredVectors(n, dim, 10, 3);
  embedding::EmbeddingStore store(dim);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add("k" + std::to_string(i), data[i]).ok());
  }
  ASSERT_TRUE(store.EnableAnn().ok());
  ASSERT_TRUE(store.AnnActive());

  // Appending a NEW key inserts incrementally; the index stays live and
  // can return the new key.
  std::vector<float> fresh = data[0];
  fresh[0] += 0.01f;
  ASSERT_TRUE(store.Add("brand_new", fresh).ok());
  EXPECT_TRUE(store.AnnActive());
  std::vector<embedding::Neighbor> hits = store.NearestToVector(fresh, 3);
  bool found = false;
  for (const auto& h : hits) found = found || h.key == "brand_new";
  EXPECT_TRUE(found);

  // Overwriting an EXISTING key goes stale: queries fall back to the
  // exact scan (correct results for the new value), until re-enabled.
  std::vector<float> replacement(dim, 0.0f);
  replacement[1] = 1.0f;
  ASSERT_TRUE(store.Add("k0", replacement).ok());
  EXPECT_FALSE(store.AnnActive());
  hits = store.NearestToVector(replacement, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].key, "k0");
  EXPECT_NEAR(hits[0].similarity, 1.0, 1e-9);

  ASSERT_TRUE(store.EnableAnn().ok());
  EXPECT_TRUE(store.AnnActive());
  hits = store.NearestToVector(replacement, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].key, "k0");

  store.DisableAnn();
  EXPECT_FALSE(store.AnnActive());
}

void ExpectSameHits(const std::vector<embedding::Neighbor>& got,
                    const std::vector<embedding::Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "rank " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << "rank " << i;
  }
}

TEST(EmbeddingStoreAnnTest, CopyDropsIndexMoveCarriesIt) {
  const size_t n = 1100, dim = 8;
  auto data = ClusteredVectors(n, dim, 10, 21);
  embedding::EmbeddingStore store(dim);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add("k" + std::to_string(i), data[i]).ok());
  }
  auto queries = ClusteredVectors(8, dim, 10, 77);
  auto hits_of = [&](const embedding::EmbeddingStore& s) {
    std::vector<std::vector<embedding::Neighbor>> out;
    for (const auto& q : queries) out.push_back(s.NearestToVector(q, 5));
    return out;
  };
  auto expect_hits = [&](const embedding::EmbeddingStore& s,
                         const std::vector<std::vector<embedding::Neighbor>>&
                             want) {
    auto got = hits_of(s);
    for (size_t i = 0; i < queries.size(); ++i) ExpectSameHits(got[i], want[i]);
  };
  const auto exact = hits_of(store);
  ASSERT_TRUE(store.EnableAnn().ok());
  const auto approx = hits_of(store);

  // Copies take the vectors but not the index: they answer on the exact
  // path.
  embedding::EmbeddingStore copy(store);
  EXPECT_FALSE(copy.AnnActive());
  EXPECT_EQ(copy.size(), store.size());
  expect_hits(copy, exact);

  // Copy assignment also drops the target's own previous index.
  embedding::EmbeddingStore assigned(dim);
  ASSERT_TRUE(assigned.Add("other", std::vector<float>(dim, 1.0f)).ok());
  ASSERT_TRUE(assigned.EnableAnn().ok());
  assigned = store;
  EXPECT_FALSE(assigned.AnnActive());
  EXPECT_EQ(assigned.size(), store.size());
  EXPECT_FALSE(assigned.Contains("other"));
  expect_hits(assigned, exact);

  // Moves carry the index: they answer on the ANN path.
  embedding::EmbeddingStore moved(std::move(store));
  EXPECT_TRUE(moved.AnnActive());
  expect_hits(moved, approx);

  embedding::EmbeddingStore move_assigned;
  move_assigned = std::move(moved);
  EXPECT_TRUE(move_assigned.AnnActive());
  EXPECT_EQ(move_assigned.size(), n);
  expect_hits(move_assigned, approx);
}

TEST(EmbeddingStoreAnnTest, ConcurrentFindAndSearchAreRaceFree) {
  // The TSan half of the store's "const methods are safe to call
  // concurrently" contract: many threads look rows up while others run
  // searches on the ANN path.
  const size_t n = 300, dim = 16;
  auto data = ClusteredVectors(n, dim, 10, 13);
  embedding::EmbeddingStore store(dim);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add("k" + std::to_string(i), data[i]).ok());
  }
  ASSERT_TRUE(store.EnableAnn().ok());
  auto queries = ClusteredVectors(8, dim, 4, 7);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::vector<float>* row =
            store.Find("k" + std::to_string((t * 37 + i) % n));
        if (row == nullptr || row->size() != dim) bad.fetch_add(1);
      }
    });
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        auto hits = store.NearestToVector(queries[(t + i) % queries.size()], 3);
        if (hits.size() != 3) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace autodc::ann
