#include "src/embedding/embedding_store.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <utility>

#include "src/ann/hnsw.h"
#include "src/common/parallel.h"
#include "src/nn/kernels.h"
#include "src/obs/metrics.h"
#include "src/text/similarity.h"

namespace autodc::embedding {

namespace {

// The exact scan goes wide once a single thread would chew through this
// many rows; the grain keeps per-chunk top-k merge cost negligible.
constexpr size_t kParallelScanMin = 8192;
constexpr size_t kParallelScanGrain = 4096;

/// Top-k selector over (similarity, row id) with a total order — higher
/// similarity wins, lower id on ties — so results are deterministic for
/// any scan chunking. Keeps the current worst on top of a size-k heap:
/// O(n log k), and no per-candidate string copies (the old exact scan
/// materialized a Neighbor for every row before sorting).
struct TopK {
  explicit TopK(size_t k) : k(k) { heap.reserve(k + 1); }

  static bool Better(const std::pair<double, size_t>& a,
                     const std::pair<double, size_t>& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  }

  void Push(double sim, size_t id) {
    if (k == 0) return;
    std::pair<double, size_t> item{sim, id};
    if (heap.size() < k) {
      heap.push_back(item);
      std::push_heap(heap.begin(), heap.end(), Better);
      return;
    }
    if (Better(item, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), Better);
      heap.back() = item;
      std::push_heap(heap.begin(), heap.end(), Better);
    }
  }

  size_t k;
  std::vector<std::pair<double, size_t>> heap;
};

/// Exclusion lists are tiny (Analogy passes three keys), so a flat
/// probe over resolved row ids beats a hash lookup per candidate.
inline bool IsExcluded(const std::vector<size_t>& exclude_ids, size_t id) {
  for (size_t e : exclude_ids) {
    if (e == id) return true;
  }
  return false;
}

}  // namespace

struct EmbeddingStore::AnnState {
  std::unique_ptr<ann::HnswIndex> index;
  /// Set when an indexed vector mutates under the index (overwrite,
  /// CenterAndNormalize). Queries fall back to the exact scan until
  /// EnableAnn() rebuilds.
  bool stale = false;
};

EmbeddingStore::EmbeddingStore(size_t dim) : dim_(dim) {}

EmbeddingStore::~EmbeddingStore() = default;

EmbeddingStore::EmbeddingStore(const EmbeddingStore& other)
    : dim_(other.dim_),
      index_(other.index_),
      keys_(other.keys_),
      vectors_(other.vectors_),
      norms_sq_(other.norms_sq_) {}

EmbeddingStore& EmbeddingStore::operator=(const EmbeddingStore& other) {
  if (this != &other) *this = EmbeddingStore(other);
  return *this;
}

EmbeddingStore::EmbeddingStore(EmbeddingStore&& other) noexcept = default;
EmbeddingStore& EmbeddingStore::operator=(EmbeddingStore&& other) noexcept =
    default;

Status EmbeddingStore::Add(const std::string& key, std::vector<float> vector) {
  if (dim_ == 0) dim_ = vector.size();
  if (vector.size() != dim_) {
    return Status::InvalidArgument(
        "vector for '" + key + "' has dim " + std::to_string(vector.size()) +
        ", store dim is " + std::to_string(dim_));
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    size_t id = it->second;
    norms_sq_[id] = nn::kernels::SumSqF32(vector.data(), vector.size());
    vectors_[id] = std::move(vector);
    // The graph still points at the old geometry; exact fallback until
    // the owner rebuilds.
    if (ann_) ann_->stale = true;
    return Status::OK();
  }
  index_.emplace(key, keys_.size());
  keys_.push_back(key);
  norms_sq_.push_back(nn::kernels::SumSqF32(vector.data(), vector.size()));
  vectors_.push_back(std::move(vector));
  if (ann_ && !ann_->stale) {
    // Streaming path: new keys index as they arrive (row id == index id).
    ann_->index->Add(vectors_.back().data());
  }
  return Status::OK();
}

const std::vector<float>* EmbeddingStore::Find(const std::string& key) const {
  auto it = index_.find(key);
  return it == index_.end() ? nullptr : &vectors_[it->second];
}

double EmbeddingStore::CosineToRow(const float* query, double query_norm,
                                   size_t id) const {
  if (query_norm <= 0.0 || norms_sq_[id] <= 0.0) return 0.0;
  double dot = nn::kernels::DotF32D(query, vectors_[id].data(), dim_);
  return dot / (query_norm * std::sqrt(norms_sq_[id]));
}

size_t EmbeddingStore::ResidentBytes() const {
  size_t bytes = norms_sq_.capacity() * sizeof(double);
  bytes += vectors_.capacity() * sizeof(std::vector<float>);
  for (const auto& v : vectors_) bytes += v.capacity() * sizeof(float);
  return bytes;
}

std::vector<Neighbor> EmbeddingStore::ExactNearest(
    const std::vector<float>& query, size_t k,
    const std::vector<size_t>& exclude_ids) const {
  // The query norm is fixed across candidates and candidate norms are
  // cached, so each candidate costs one dot product. A dimension
  // mismatch scores 0, matching CosineSimilarity on unequal sizes.
  double query_norm_sq =
      query.size() == dim_
          ? nn::kernels::SumSqF32(query.data(), query.size())
          : -1.0;
  double query_norm =
      query_norm_sq > 0.0 ? std::sqrt(query_norm_sq) : 0.0;
  size_t n = keys_.size();

  auto scan = [&](size_t begin, size_t end, TopK* top) {
    for (size_t i = begin; i < end; ++i) {
      if (IsExcluded(exclude_ids, i)) continue;
      top->Push(CosineToRow(query.data(), query_norm, i), i);
    }
  };

  std::vector<std::pair<double, size_t>> best;
  if (n >= kParallelScanMin && NumThreads() > 1) {
    // Row-block parallel scan: each chunk keeps its own top-k, chunks
    // merge under a lock, and the final selection re-applies the same
    // total order — so the result is identical for any thread count.
    std::mutex mu;
    ParallelFor(0, n, kParallelScanGrain, [&](size_t begin, size_t end) {
      TopK local(k);
      scan(begin, end, &local);
      std::lock_guard<std::mutex> lock(mu);
      best.insert(best.end(), local.heap.begin(), local.heap.end());
    });
  } else {
    TopK top(k);
    scan(0, n, &top);
    best = std::move(top.heap);
  }
  std::sort(best.begin(), best.end(), TopK::Better);
  if (best.size() > k) best.resize(k);

  AUTODC_OBS_INC("embedding.nearest.exact");
  std::vector<Neighbor> out;
  out.reserve(best.size());
  for (const auto& [sim, id] : best) {
    out.push_back(Neighbor{keys_[id], sim});
  }
  return out;
}

std::vector<Neighbor> EmbeddingStore::AnnNearest(
    const std::vector<float>& query, size_t k,
    const std::vector<size_t>& exclude_ids) const {
  // Degenerate queries (dim mismatch, zero norm) have no graph
  // geometry to navigate; keep the exact path's semantics for them.
  if (query.size() != dim_) return ExactNearest(query, k, exclude_ids);
  double query_norm_sq = nn::kernels::SumSqF32(query.data(), query.size());
  if (query_norm_sq <= 0.0) return ExactNearest(query, k, exclude_ids);

  std::vector<ann::ScoredId> hits =
      ann_->index->Search(query.data(), k + exclude_ids.size());

  // Re-score survivors with the exact path's formula so similarity
  // values agree bit-for-bit with an exact scan returning the same key.
  double query_norm = std::sqrt(query_norm_sq);
  std::vector<std::pair<double, size_t>> best;
  best.reserve(hits.size());
  for (const ann::ScoredId& hit : hits) {
    if (IsExcluded(exclude_ids, hit.id)) continue;
    best.emplace_back(CosineToRow(query.data(), query_norm, hit.id), hit.id);
  }
  std::sort(best.begin(), best.end(), TopK::Better);
  if (best.size() > k) best.resize(k);

  AUTODC_OBS_INC("embedding.nearest.ann");
  std::vector<Neighbor> out;
  out.reserve(best.size());
  for (const auto& [sim, id] : best) {
    out.push_back(Neighbor{keys_[id], sim});
  }
  return out;
}

bool EmbeddingStore::UseAnnFor(size_t k, size_t num_excluded) const {
  size_t n = keys_.size();
  if (n == 0 || k == 0) return false;
  // Exact-scan fallback for small result margins: when the caller asks
  // for a sizable fraction of the store, the scan is both faster and
  // exact.
  if ((k + num_excluded) * 4 >= n) return false;
  return AnnActive();
}

Status EmbeddingStore::EnableAnn() {
  if (dim_ == 0) {
    return Status::FailedPrecondition(
        "cannot build ANN index: store dimensionality unknown (empty store "
        "constructed without a dim)");
  }
  auto st = std::make_unique<AnnState>();
  st->index = std::make_unique<ann::HnswIndex>(dim_, ann::HnswConfig{});
  std::vector<const float*> rows;
  rows.reserve(vectors_.size());
  for (const std::vector<float>& v : vectors_) rows.push_back(v.data());
  st->index->Build(rows);
  ann_ = std::move(st);
  AUTODC_OBS_GAUGE_SET("embedding.store.bytes",
                       static_cast<int64_t>(ResidentBytes()));
  return Status::OK();
}

Status EmbeddingStore::RebuildAnn() {
  if (!ann_) {
    return Status::FailedPrecondition(
        "RebuildAnn: no ANN index was ever built for this store (call "
        "EnableAnn first)");
  }
  if (!ann_->stale) return Status::OK();
  return EnableAnn();
}

void EmbeddingStore::DisableAnn() { ann_.reset(); }

bool EmbeddingStore::AnnActive() const { return ann_ && !ann_->stale; }

std::vector<Neighbor> EmbeddingStore::NearestToVector(
    const std::vector<float>& query, size_t k,
    const std::vector<std::string>& exclude) const {
  // Resolve exclusions to row ids once, up front; keys not in the store
  // fall away here instead of being probed per candidate.
  std::vector<size_t> exclude_ids;
  exclude_ids.reserve(exclude.size());
  for (const std::string& key : exclude) {
    auto it = index_.find(key);
    if (it != index_.end()) exclude_ids.push_back(it->second);
  }
  std::sort(exclude_ids.begin(), exclude_ids.end());
  exclude_ids.erase(std::unique(exclude_ids.begin(), exclude_ids.end()),
                    exclude_ids.end());
  if (UseAnnFor(k, exclude_ids.size())) {
    return AnnNearest(query, k, exclude_ids);
  }
  return ExactNearest(query, k, exclude_ids);
}

Result<std::vector<Neighbor>> EmbeddingStore::Nearest(const std::string& key,
                                                      size_t k) const {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound("no embedding for '" + key + "'");
  }
  return NearestToVector(vectors_[it->second], k, {key});
}

Result<double> EmbeddingStore::Similarity(const std::string& a,
                                          const std::string& b) const {
  auto ia = index_.find(a);
  auto ib = index_.find(b);
  if (ia == index_.end()) {
    return Status::NotFound("no embedding for '" + a + "'");
  }
  if (ib == index_.end()) {
    return Status::NotFound("no embedding for '" + b + "'");
  }
  return text::CosineSimilarity(vectors_[ia->second], vectors_[ib->second]);
}

Result<std::vector<Neighbor>> EmbeddingStore::Analogy(const std::string& a,
                                                      const std::string& b,
                                                      const std::string& c,
                                                      size_t k) const {
  auto ia = index_.find(a);
  auto ib = index_.find(b);
  auto ic = index_.find(c);
  if (ia == index_.end() || ib == index_.end() || ic == index_.end()) {
    return Status::NotFound("analogy term missing from store");
  }
  const std::vector<float>& va = vectors_[ia->second];
  const std::vector<float>& vb = vectors_[ib->second];
  const std::vector<float>& vc = vectors_[ic->second];
  std::vector<float> q(dim_);
  for (size_t i = 0; i < dim_; ++i) {
    q[i] = vb[i] - va[i] + vc[i];
  }
  return NearestToVector(q, k, {a, b, c});
}

void EmbeddingStore::CenterAndNormalize() {
  if (vectors_.empty() || dim_ == 0) return;
  std::vector<double> mean(dim_, 0.0);
  for (const auto& v : vectors_) {
    for (size_t i = 0; i < dim_; ++i) mean[i] += v[i];
  }
  for (double& m : mean) m /= static_cast<double>(vectors_.size());
  for (auto& v : vectors_) {
    double norm = 0.0;
    for (size_t i = 0; i < dim_; ++i) {
      v[i] = static_cast<float>(v[i] - mean[i]);
      norm += static_cast<double>(v[i]) * v[i];
    }
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (size_t i = 0; i < dim_; ++i) {
        v[i] = static_cast<float>(v[i] / norm);
      }
    }
  }
  for (size_t i = 0; i < vectors_.size(); ++i) {
    norms_sq_[i] =
        nn::kernels::SumSqF32(vectors_[i].data(), vectors_[i].size());
  }
  if (ann_) ann_->stale = true;
}

std::vector<float> EmbeddingStore::AverageOf(
    const std::vector<std::string>& keys) const {
  std::vector<float> avg(dim_, 0.0f);
  size_t found = 0;
  for (const std::string& key : keys) {
    auto it = index_.find(key);
    if (it == index_.end()) continue;
    nn::kernels::AxpyF32(1.0f, vectors_[it->second].data(), avg.data(), dim_);
    ++found;
  }
  if (found > 0) {
    for (float& x : avg) x /= static_cast<float>(found);
  }
  return avg;
}

}  // namespace autodc::embedding
