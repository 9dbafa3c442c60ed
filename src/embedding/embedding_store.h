#ifndef AUTODC_EMBEDDING_EMBEDDING_STORE_H_
#define AUTODC_EMBEDDING_EMBEDDING_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/nn/kernels.h"

namespace autodc::ann {
struct HnswConfig;
}  // namespace autodc::ann

namespace autodc::embedding {

/// A scored neighbour returned by similarity search.
struct Neighbor {
  std::string key;
  double similarity = 0.0;
};

/// Immutable-ish map from string keys (words, cells, "column:value" node
/// labels) to dense vectors, with cosine nearest-neighbour search and the
/// vector-arithmetic analogy queries of Sec. 2.2 (king - man + woman ≈
/// queen).
///
/// Retrieval has two paths. The default is the exact scan: top-k
/// selection over every row (parallelized across row blocks for large
/// stores), bit-identical in scores to the seed implementation. Calling
/// EnableAnn() routes NearestToVector through an HNSW graph index
/// (src/ann) instead: approximate results, sub-linear query time.
/// Mutating a vector that is already indexed (overwrite or
/// CenterAndNormalize) invalidates the index; queries fall back to the
/// exact scan until RebuildAnn() or EnableAnn() (appending new keys via
/// Add keeps the index live — they are inserted incrementally).
///
/// Storage precision (DESIGN.md §11): a store constructed with
/// Quant::kInt8 (or kInt8Sym / kBf16) quantizes rows on insert and
/// drops the fp32 copies, roughly halving (bf16) or quartering (int8)
/// row-storage bytes. Exact scans and HNSW graph hops then score on the
/// quantized rows directly, and the top-k shortlist is re-scored in fp32
/// over the dequantized rows, so the similarities returned stay on the
/// exact-path formula. Find() on a
/// quantized store dequantizes the row on first access into a per-row
/// cache (pointers stay stable for the store's lifetime). The default
/// fp32 mode is bit-identical to the unquantized store.
///
/// Const methods are safe to call concurrently; mutators (Add,
/// CenterAndNormalize, EnableAnn, RebuildAnn, DisableAnn) need exclusive
/// access.
class EmbeddingStore {
 public:
  EmbeddingStore() : EmbeddingStore(0) {}
  explicit EmbeddingStore(size_t dim)
      : EmbeddingStore(dim, nn::kernels::Quant::kFp32) {}
  EmbeddingStore(size_t dim, nn::kernels::Quant quant);
  ~EmbeddingStore();

  /// Copies duplicate the vectors but not the ANN index (call EnableAnn
  /// on the copy); moves carry the index along.
  EmbeddingStore(const EmbeddingStore& other);
  EmbeddingStore& operator=(const EmbeddingStore& other);
  EmbeddingStore(EmbeddingStore&& other) noexcept;
  EmbeddingStore& operator=(EmbeddingStore&& other) noexcept;

  /// Inserts or overwrites a vector (must match the store dimensionality;
  /// the first Add fixes it when constructed with dim 0).
  Status Add(const std::string& key, std::vector<float> vector);

  /// Vector for key, or nullptr. On a quantized store this dequantizes
  /// on first access and caches the fp32 row (thread-safe; the pointer
  /// stays valid and tracks later overwrites of the key).
  const std::vector<float>* Find(const std::string& key) const;

  bool Contains(const std::string& key) const {
    return index_.count(key) > 0;
  }
  size_t size() const { return keys_.size(); }
  size_t dim() const { return dim_; }
  const std::vector<std::string>& keys() const { return keys_; }
  /// Row storage precision.
  nn::kernels::Quant quant() const { return quant_; }
  /// Heap bytes of row storage + cached norms/params (keys and the key
  /// index excluded — they are identical across modes). The memory half
  /// of the quantization bench gate; published as the
  /// embedding.store.bytes gauge when an ANN index is built.
  size_t ResidentBytes() const;

  /// k nearest neighbours of `query` by cosine similarity, excluding the
  /// keys listed in `exclude`. Exact by default; approximate when the
  /// ANN index is active (see class comment).
  std::vector<Neighbor> NearestToVector(
      const std::vector<float>& query, size_t k,
      const std::vector<std::string>& exclude = {}) const;

  /// k nearest neighbours of an existing key (itself excluded).
  Result<std::vector<Neighbor>> Nearest(const std::string& key,
                                        size_t k) const;

  /// Cosine similarity between two stored keys; error if either missing.
  Result<double> Similarity(const std::string& a, const std::string& b) const;

  /// Solves a : b :: c : ? via the offset method — returns the nearest
  /// key to (b - a + c), excluding a, b, c.
  Result<std::vector<Neighbor>> Analogy(const std::string& a,
                                        const std::string& b,
                                        const std::string& c,
                                        size_t k = 3) const;

  /// Mean vector of the keys that exist in the store; zero vector if none
  /// do. Used by coherent-group matching and query embedding.
  std::vector<float> AverageOf(const std::vector<std::string>& keys) const;

  /// Common-component removal: subtracts the store-wide mean vector from
  /// every embedding, then L2-normalizes each. Small-corpus embeddings
  /// share a large common direction that crushes all cosine similarities
  /// toward 1; removing it restores discriminative geometry (the SIF
  /// "common component" trick). Invalidates a live ANN index.
  void CenterAndNormalize();

  /// Builds (or rebuilds) the HNSW index over the current contents and
  /// routes subsequent NearestToVector calls through it. The no-config
  /// overload uses HnswConfig's defaults.
  Status EnableAnn();
  Status EnableAnn(const ann::HnswConfig& config);

  /// Re-freshens a stale index in place: when an overwrite or
  /// CenterAndNormalize has invalidated the index, rebuilds it with the
  /// config it was originally built with (no-op when the index is still
  /// fresh). This is the recovery call for long-running owners (the
  /// serve-layer session refresh): without it a store that took one
  /// in-place update silently serves exact-scan latency forever.
  /// FailedPrecondition when no index was ever built.
  Status RebuildAnn();

  /// Drops the index; queries return to the exact scan.
  void DisableAnn();

  /// True when the index is built and fresh (queries take the ANN path).
  bool AnnActive() const;

 private:
  struct AnnState;  // holds the index, its config and staleness (see .cc)

  /// Exact top-k scan; `exclude_ids` are row ids, sorted ascending.
  std::vector<Neighbor> ExactNearest(
      const std::vector<float>& query, size_t k,
      const std::vector<size_t>& exclude_ids) const;
  std::vector<Neighbor> AnnNearest(const std::vector<float>& query, size_t k,
                                   const std::vector<size_t>& exclude_ids)
      const;
  /// Routes a query between the ANN path and the exact fallback.
  bool UseAnnFor(size_t k, size_t num_excluded) const;

  /// Materializes row `id` as fp32 into `out` (dim_ floats): a copy in
  /// fp32 mode, dequantization otherwise.
  void RowToF32(size_t id, float* out) const;
  /// Writes `v` into the quantized backing at row `id` (appending when
  /// id == current row count) and returns the squared norm of the
  /// stored (dequantized) representation.
  double WriteQuantRow(size_t id, const float* v);
  /// Exact-formula similarity against row `id`: fp32 dot over the
  /// dequantized row (via `scratch` on quantized stores). This is the
  /// rescoring contract — ANN hits and quantized-scan shortlists both
  /// come back through here so returned similarities are comparable
  /// across modes and paths.
  double RescoredSim(const float* query, double query_norm, size_t id,
                     std::vector<float>& scratch) const;

  size_t dim_ = 0;
  nn::kernels::Quant quant_ = nn::kernels::Quant::kFp32;
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::string> keys_;
  // Row storage: vectors_ in fp32 mode, the flat arrays below in
  // quantized modes (per-row scale/zero-point + cached element sums for
  // the int8 zero-point correction).
  std::vector<std::vector<float>> vectors_;
  std::vector<std::int8_t> q8_data_;
  std::vector<nn::kernels::Int8Params> q8_params_;
  std::vector<std::int32_t> q8_sums_;
  std::vector<std::uint16_t> bf16_data_;
  std::vector<float> scratch_;  // non-const-path dequant scratch
  // Cached squared L2 norm per vector (of the stored representation),
  // maintained by Add and CenterAndNormalize, so nearest-neighbour
  // search does one dot per candidate instead of a full cosine (3
  // reductions).
  std::vector<double> norms_sq_;
  // Find() on a quantized store returns pointers into this per-row
  // dequant cache; unordered_map's node-based storage keeps mapped
  // vectors stable across rehash, and overwrites refresh entries in
  // place so held pointers track the latest value.
  mutable std::mutex dequant_mu_;
  mutable std::unordered_map<size_t, std::vector<float>> dequant_cache_;
  // Null until EnableAnn; only mutators write it.
  std::unique_ptr<AnnState> ann_;
};

}  // namespace autodc::embedding

#endif  // AUTODC_EMBEDDING_EMBEDDING_STORE_H_
