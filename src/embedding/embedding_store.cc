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
  ann::HnswConfig config;
  /// Set when an indexed vector mutates under the index (overwrite,
  /// CenterAndNormalize). Queries fall back to the exact scan until
  /// EnableAnn() rebuilds.
  bool stale = false;
};

EmbeddingStore::EmbeddingStore(size_t dim, nn::kernels::Quant quant)
    : dim_(dim), quant_(quant) {}

EmbeddingStore::~EmbeddingStore() = default;

EmbeddingStore::EmbeddingStore(const EmbeddingStore& other)
    : dim_(other.dim_),
      quant_(other.quant_),
      index_(other.index_),
      keys_(other.keys_),
      vectors_(other.vectors_),
      q8_data_(other.q8_data_),
      q8_params_(other.q8_params_),
      q8_sums_(other.q8_sums_),
      bf16_data_(other.bf16_data_),
      norms_sq_(other.norms_sq_) {
  // Neither the dequant cache (it refills on demand) nor the ANN index
  // is copied.
}

EmbeddingStore& EmbeddingStore::operator=(const EmbeddingStore& other) {
  if (this == &other) return *this;
  dim_ = other.dim_;
  quant_ = other.quant_;
  index_ = other.index_;
  keys_ = other.keys_;
  vectors_ = other.vectors_;
  q8_data_ = other.q8_data_;
  q8_params_ = other.q8_params_;
  q8_sums_ = other.q8_sums_;
  bf16_data_ = other.bf16_data_;
  norms_sq_ = other.norms_sq_;
  {
    std::lock_guard<std::mutex> lock(dequant_mu_);
    dequant_cache_.clear();
  }
  ann_.reset();
  return *this;
}

EmbeddingStore::EmbeddingStore(EmbeddingStore&& other) noexcept
    : dim_(other.dim_),
      quant_(other.quant_),
      index_(std::move(other.index_)),
      keys_(std::move(other.keys_)),
      vectors_(std::move(other.vectors_)),
      q8_data_(std::move(other.q8_data_)),
      q8_params_(std::move(other.q8_params_)),
      q8_sums_(std::move(other.q8_sums_)),
      bf16_data_(std::move(other.bf16_data_)),
      norms_sq_(std::move(other.norms_sq_)),
      dequant_cache_(std::move(other.dequant_cache_)),
      ann_(std::move(other.ann_)) {}

EmbeddingStore& EmbeddingStore::operator=(EmbeddingStore&& other) noexcept {
  if (this == &other) return *this;
  dim_ = other.dim_;
  quant_ = other.quant_;
  index_ = std::move(other.index_);
  keys_ = std::move(other.keys_);
  vectors_ = std::move(other.vectors_);
  q8_data_ = std::move(other.q8_data_);
  q8_params_ = std::move(other.q8_params_);
  q8_sums_ = std::move(other.q8_sums_);
  bf16_data_ = std::move(other.bf16_data_);
  norms_sq_ = std::move(other.norms_sq_);
  {
    std::lock_guard<std::mutex> lock(dequant_mu_);
    dequant_cache_ = std::move(other.dequant_cache_);
  }
  ann_ = std::move(other.ann_);
  return *this;
}

Status EmbeddingStore::Add(const std::string& key, std::vector<float> vector) {
  if (dim_ == 0) dim_ = vector.size();
  if (vector.size() != dim_) {
    return Status::InvalidArgument(
        "vector for '" + key + "' has dim " + std::to_string(vector.size()) +
        ", store dim is " + std::to_string(dim_));
  }
  const bool fp32 = quant_ == nn::kernels::Quant::kFp32;
  auto it = index_.find(key);
  if (it != index_.end()) {
    size_t id = it->second;
    if (fp32) {
      norms_sq_[id] = nn::kernels::SumSqF32(vector.data(), vector.size());
      vectors_[id] = std::move(vector);
    } else {
      norms_sq_[id] = WriteQuantRow(id, vector.data());
      // Refresh a cached dequant row in place so pointers handed out by
      // Find() keep tracking the key's latest value (fp32 semantics).
      std::lock_guard<std::mutex> lock(dequant_mu_);
      auto cached = dequant_cache_.find(id);
      if (cached != dequant_cache_.end()) {
        RowToF32(id, cached->second.data());
      }
    }
    // The graph still points at the old geometry; exact fallback until
    // the owner rebuilds.
    if (ann_) ann_->stale = true;
    return Status::OK();
  }
  size_t id = keys_.size();
  index_.emplace(key, id);
  keys_.push_back(key);
  if (fp32) {
    norms_sq_.push_back(nn::kernels::SumSqF32(vector.data(), vector.size()));
    vectors_.push_back(std::move(vector));
  } else {
    norms_sq_.push_back(WriteQuantRow(id, vector.data()));
  }
  if (ann_ && !ann_->stale) {
    // Streaming path: new keys index as they arrive (row id == index id).
    // The index re-quantizes from fp32, so quantized stores hand it the
    // dequantized row (same values the store itself scores against).
    if (fp32) {
      ann_->index->Add(vectors_.back().data());
    } else {
      scratch_.resize(dim_);
      RowToF32(id, scratch_.data());
      ann_->index->Add(scratch_.data());
    }
  }
  return Status::OK();
}

const std::vector<float>* EmbeddingStore::Find(const std::string& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  if (quant_ == nn::kernels::Quant::kFp32) return &vectors_[it->second];
  // Quantized stores have no fp32 rows to point at; dequantize into the
  // per-row cache (node-based map: mapped vectors stay stable across
  // rehash, and Add() refreshes entries in place on overwrite).
  std::lock_guard<std::mutex> lock(dequant_mu_);
  auto [entry, inserted] = dequant_cache_.try_emplace(it->second);
  if (inserted) {
    entry->second.resize(dim_);
    RowToF32(it->second, entry->second.data());
  }
  return &entry->second;
}

void EmbeddingStore::RowToF32(size_t id, float* out) const {
  switch (quant_) {
    case nn::kernels::Quant::kFp32:
      std::copy(vectors_[id].begin(), vectors_[id].end(), out);
      break;
    case nn::kernels::Quant::kInt8:
    case nn::kernels::Quant::kInt8Sym:
      nn::kernels::DequantizeI8F32(q8_data_.data() + id * dim_, dim_,
                                   q8_params_[id], out);
      break;
    case nn::kernels::Quant::kBf16:
      nn::kernels::Bf16ToF32(bf16_data_.data() + id * dim_, dim_, out);
      break;
  }
}

double EmbeddingStore::WriteQuantRow(size_t id, const float* v) {
  switch (quant_) {
    case nn::kernels::Quant::kFp32:
      break;  // unreachable: fp32 rows go through vectors_
    case nn::kernels::Quant::kInt8:
    case nn::kernels::Quant::kInt8Sym: {
      if (q8_data_.size() < (id + 1) * dim_) {
        q8_data_.resize((id + 1) * dim_);
        q8_params_.resize(id + 1);
        q8_sums_.resize(id + 1);
      }
      nn::kernels::Int8Params p = nn::kernels::ComputeInt8Params(
          v, dim_, quant_ == nn::kernels::Quant::kInt8Sym);
      std::int8_t* row = q8_data_.data() + id * dim_;
      nn::kernels::QuantizeI8F32(v, dim_, p, row);
      q8_params_[id] = p;
      q8_sums_[id] = nn::kernels::SumI8I32(row, dim_);
      break;
    }
    case nn::kernels::Quant::kBf16:
      if (bf16_data_.size() < (id + 1) * dim_) {
        bf16_data_.resize((id + 1) * dim_);
      }
      nn::kernels::F32ToBf16(v, dim_, bf16_data_.data() + id * dim_);
      break;
  }
  // Norms come from the stored (dequantized) representation so ranking
  // and rescoring share the geometry the rows actually encode.
  scratch_.resize(dim_);
  RowToF32(id, scratch_.data());
  return nn::kernels::SumSqF32(scratch_.data(), dim_);
}

double EmbeddingStore::RescoredSim(const float* query, double query_norm,
                                   size_t id,
                                   std::vector<float>& scratch) const {
  if (query_norm <= 0.0 || norms_sq_[id] <= 0.0) return 0.0;
  const float* row;
  if (quant_ == nn::kernels::Quant::kFp32) {
    row = vectors_[id].data();
  } else {
    scratch.resize(dim_);
    RowToF32(id, scratch.data());
    row = scratch.data();
  }
  double dot = nn::kernels::DotF32D(query, row, dim_);
  return dot / (query_norm * std::sqrt(norms_sq_[id]));
}

size_t EmbeddingStore::ResidentBytes() const {
  size_t bytes = norms_sq_.capacity() * sizeof(double);
  if (quant_ == nn::kernels::Quant::kFp32) {
    bytes += vectors_.capacity() * sizeof(std::vector<float>);
    for (const auto& v : vectors_) bytes += v.capacity() * sizeof(float);
  } else {
    bytes += q8_data_.capacity() * sizeof(std::int8_t);
    bytes += q8_params_.capacity() * sizeof(nn::kernels::Int8Params);
    bytes += q8_sums_.capacity() * sizeof(std::int32_t);
    bytes += bf16_data_.capacity() * sizeof(std::uint16_t);
  }
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

  // Quantized stores scan on the quantized rows (the memory win) and
  // re-score a shortlist in fp32 below; the shortlist over-fetch absorbs
  // quantization-induced rank swaps near the top-k boundary. The query
  // is converted once, outside the row loop.
  const bool quantized = quant_ != nn::kernels::Quant::kFp32;
  const bool int8 = nn::kernels::QuantIsInt8(quant_);
  std::vector<std::int8_t> query_q8;
  nn::kernels::Int8Params query_q8_params;
  std::int32_t query_q8_sum = 0;
  std::vector<std::uint16_t> query_bf16;
  if (quantized && query_norm > 0.0) {
    if (int8) {
      query_q8.resize(dim_);
      query_q8_params = nn::kernels::ComputeInt8Params(
          query.data(), dim_, quant_ == nn::kernels::Quant::kInt8Sym);
      nn::kernels::QuantizeI8F32(query.data(), dim_, query_q8_params,
                                 query_q8.data());
      query_q8_sum = nn::kernels::SumI8I32(query_q8.data(), dim_);
    } else {
      query_bf16.resize(dim_);
      nn::kernels::F32ToBf16(query.data(), dim_, query_bf16.data());
    }
  }
  size_t shortlist = quantized ? std::min(n, k + std::max(k, size_t{8})) : k;

  auto scan = [&](size_t begin, size_t end, TopK* top) {
    for (size_t i = begin; i < end; ++i) {
      if (IsExcluded(exclude_ids, i)) continue;
      double sim = 0.0;
      if (query_norm_sq > 0.0 && norms_sq_[i] > 0.0) {
        double dot;
        if (!quantized) {
          dot = nn::kernels::DotF32D(query.data(), vectors_[i].data(), dim_);
        } else if (int8) {
          const std::int8_t* row = q8_data_.data() + i * dim_;
          dot = nn::kernels::DequantDotD(
              nn::kernels::DotI8I32(query_q8.data(), row, dim_),
              query_q8_params, query_q8_sum, q8_params_[i], q8_sums_[i],
              dim_);
        } else {
          dot = nn::kernels::DotBf16D(query_bf16.data(),
                                      bf16_data_.data() + i * dim_, dim_);
        }
        sim = dot / (query_norm * std::sqrt(norms_sq_[i]));
      }
      top->Push(sim, i);
    }
  };

  std::vector<std::pair<double, size_t>> best;
  if (n >= kParallelScanMin && NumThreads() > 1) {
    // Row-block parallel scan: each chunk keeps its own top-k, chunks
    // merge under a lock, and the final selection re-applies the same
    // total order — so the result is identical for any thread count.
    std::mutex mu;
    ParallelFor(0, n, kParallelScanGrain, [&](size_t begin, size_t end) {
      TopK local(shortlist);
      scan(begin, end, &local);
      std::lock_guard<std::mutex> lock(mu);
      best.insert(best.end(), local.heap.begin(), local.heap.end());
    });
  } else {
    TopK top(shortlist);
    scan(0, n, &top);
    best = std::move(top.heap);
  }
  std::sort(best.begin(), best.end(), TopK::Better);
  if (best.size() > shortlist) best.resize(shortlist);
  if (quantized) {
    // Rescoring contract: the shortlist re-ranks on the exact fp32
    // formula over dequantized rows, so returned similarities match
    // what an fp32 store would report for the same keys.
    std::vector<float> scratch;
    for (auto& [sim, id] : best) {
      sim = RescoredSim(query.data(), query_norm, id, scratch);
    }
    std::sort(best.begin(), best.end(), TopK::Better);
  }
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

  // Quantized graphs over-fetch a little so fp32 rescoring can repair
  // rank swaps the quantized distances introduced near the boundary.
  size_t extra = quant_ != nn::kernels::Quant::kFp32 ? 8 : 0;
  std::vector<ann::ScoredId> hits =
      ann_->index->Search(query.data(), k + exclude_ids.size() + extra);

  // Re-score survivors with the exact path's formula so similarity
  // values agree bit-for-bit with an exact scan returning the same key.
  double query_norm = std::sqrt(query_norm_sq);
  std::vector<float> scratch;
  std::vector<std::pair<double, size_t>> best;
  best.reserve(hits.size());
  for (const ann::ScoredId& hit : hits) {
    if (IsExcluded(exclude_ids, hit.id)) continue;
    best.emplace_back(RescoredSim(query.data(), query_norm, hit.id, scratch),
                      hit.id);
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

Status EmbeddingStore::EnableAnn() { return EnableAnn(ann::HnswConfig{}); }

Status EmbeddingStore::EnableAnn(const ann::HnswConfig& config) {
  if (dim_ == 0) {
    return Status::FailedPrecondition(
        "cannot build ANN index: store dimensionality unknown (empty store "
        "constructed without a dim)");
  }
  auto st = std::make_unique<AnnState>();
  // A quantized store defaults the index to the same precision (an
  // explicit non-fp32 config choice wins). The index re-quantizes from
  // fp32 on insert, so quantized rows are dequantized into a transient
  // dense matrix for the build.
  ann::HnswConfig cfg = config;
  if (cfg.quant == nn::kernels::Quant::kFp32) cfg.quant = quant_;
  st->config = cfg;
  st->index = std::make_unique<ann::HnswIndex>(dim_, cfg);
  size_t n = keys_.size();
  std::vector<const float*> rows;
  rows.reserve(n);
  std::vector<float> dense;
  if (quant_ == nn::kernels::Quant::kFp32) {
    for (const std::vector<float>& v : vectors_) rows.push_back(v.data());
  } else {
    dense.resize(n * dim_);
    for (size_t i = 0; i < n; ++i) {
      RowToF32(i, dense.data() + i * dim_);
      rows.push_back(dense.data() + i * dim_);
    }
  }
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
  // Copied out: EnableAnn replaces the state that holds it.
  ann::HnswConfig config = ann_->config;
  return EnableAnn(config);
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
  if (quant_ == nn::kernels::Quant::kFp32) {
    return NearestToVector(vectors_[it->second], k, {key});
  }
  // A local dequant avoids growing the Find() cache for a transient use.
  std::vector<float> q(dim_);
  RowToF32(it->second, q.data());
  return NearestToVector(q, k, {key});
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
  size_t id_a = ia->second, id_b = ib->second;
  switch (quant_) {
    case nn::kernels::Quant::kFp32:
      return text::CosineSimilarity(vectors_[id_a], vectors_[id_b]);
    case nn::kernels::Quant::kInt8:
    case nn::kernels::Quant::kInt8Sym:
      // Fused quantized cosine: exact integer dot + dequant algebra, no
      // fp32 materialization.
      return static_cast<double>(nn::kernels::CosineI8(
          q8_data_.data() + id_a * dim_, q8_params_[id_a],
          q8_data_.data() + id_b * dim_, q8_params_[id_b], dim_));
    case nn::kernels::Quant::kBf16:
      return static_cast<double>(nn::kernels::CosineBf16(
          bf16_data_.data() + id_a * dim_, bf16_data_.data() + id_b * dim_,
          dim_));
  }
  return 0.0;  // unreachable
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
  const float* pa;
  const float* pb;
  const float* pc;
  std::vector<float> ta, tb, tc;
  if (quant_ == nn::kernels::Quant::kFp32) {
    pa = vectors_[ia->second].data();
    pb = vectors_[ib->second].data();
    pc = vectors_[ic->second].data();
  } else {
    ta.resize(dim_);
    tb.resize(dim_);
    tc.resize(dim_);
    RowToF32(ia->second, ta.data());
    RowToF32(ib->second, tb.data());
    RowToF32(ic->second, tc.data());
    pa = ta.data();
    pb = tb.data();
    pc = tc.data();
  }
  std::vector<float> q(dim_);
  for (size_t i = 0; i < dim_; ++i) {
    q[i] = pb[i] - pa[i] + pc[i];
  }
  return NearestToVector(q, k, {a, b, c});
}

void EmbeddingStore::CenterAndNormalize() {
  size_t n = keys_.size();
  if (n == 0 || dim_ == 0) return;
  if (quant_ == nn::kernels::Quant::kFp32) {
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
  } else {
    // Dequantize everything, run the identical centering math in fp32,
    // and requantize. Each row picks up fresh scale/zero-point for its
    // new range.
    std::vector<float> dense(n * dim_);
    for (size_t i = 0; i < n; ++i) RowToF32(i, dense.data() + i * dim_);
    std::vector<double> mean(dim_, 0.0);
    for (size_t r = 0; r < n; ++r) {
      const float* v = dense.data() + r * dim_;
      for (size_t i = 0; i < dim_; ++i) mean[i] += v[i];
    }
    for (double& m : mean) m /= static_cast<double>(n);
    for (size_t r = 0; r < n; ++r) {
      float* v = dense.data() + r * dim_;
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
      norms_sq_[r] = WriteQuantRow(r, v);
    }
    // Keep pointers handed out by Find() tracking the new geometry.
    std::lock_guard<std::mutex> lock(dequant_mu_);
    for (auto& [id, row] : dequant_cache_) {
      RowToF32(id, row.data());
    }
  }
  if (ann_) ann_->stale = true;
}

std::vector<float> EmbeddingStore::AverageOf(
    const std::vector<std::string>& keys) const {
  std::vector<float> avg(dim_, 0.0f);
  std::vector<float> row;
  size_t found = 0;
  for (const std::string& key : keys) {
    auto it = index_.find(key);
    if (it == index_.end()) continue;
    const float* v;
    if (quant_ == nn::kernels::Quant::kFp32) {
      v = vectors_[it->second].data();
    } else {
      row.resize(dim_);
      RowToF32(it->second, row.data());
      v = row.data();
    }
    nn::kernels::AxpyF32(1.0f, v, avg.data(), dim_);
    ++found;
  }
  if (found > 0) {
    for (float& x : avg) x /= static_cast<float>(found);
  }
  return avg;
}

}  // namespace autodc::embedding
