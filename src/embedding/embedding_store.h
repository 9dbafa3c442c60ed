#ifndef AUTODC_EMBEDDING_EMBEDDING_STORE_H_
#define AUTODC_EMBEDDING_EMBEDDING_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"

namespace autodc::embedding {

/// A scored neighbour returned by similarity search.
struct Neighbor {
  std::string key;
  double similarity = 0.0;
};

/// Immutable-ish map from string keys (words, cells, "column:value" node
/// labels) to dense fp32 vectors, with cosine nearest-neighbour search
/// and the vector-arithmetic analogy queries of Sec. 2.2 (king - man +
/// woman ≈ queen).
///
/// Retrieval has two paths. The default is the exact scan: top-k
/// selection over every row (parallelized across row blocks for large
/// stores), bit-identical in scores to the seed implementation. Calling
/// EnableAnn() routes NearestToVector through an HNSW graph index
/// (src/ann) instead: approximate results, sub-linear query time. ANN
/// hits are re-scored with the exact scan's formula, so a key returned
/// by both paths carries the same similarity bit-for-bit.
/// Mutating a vector that is already indexed (overwrite or
/// CenterAndNormalize) invalidates the index; queries fall back to the
/// exact scan until RebuildAnn() or EnableAnn() (appending new keys via
/// Add keeps the index live — they are inserted incrementally).
///
/// Const methods are safe to call concurrently; mutators (Add,
/// CenterAndNormalize, EnableAnn, RebuildAnn, DisableAnn) need exclusive
/// access.
class EmbeddingStore {
 public:
  EmbeddingStore() : EmbeddingStore(0) {}
  explicit EmbeddingStore(size_t dim);
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

  /// Vector for key, or nullptr. The pointer stays valid until the next
  /// Add of a new key (overwrites and CenterAndNormalize update the
  /// pointed-to vector in place).
  const std::vector<float>* Find(const std::string& key) const;

  bool Contains(const std::string& key) const {
    return index_.count(key) > 0;
  }
  size_t size() const { return keys_.size(); }
  size_t dim() const { return dim_; }
  const std::vector<std::string>& keys() const { return keys_; }
  /// Heap bytes of row storage + cached norms (keys and the key index
  /// excluded). Published as the embedding.store.bytes gauge when an ANN
  /// index is built.
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

  /// Builds (or rebuilds) an HNSW index with HnswConfig's defaults over
  /// the current contents and routes subsequent NearestToVector calls
  /// through it.
  Status EnableAnn();

  /// Re-freshens a stale index in place: when an overwrite or
  /// CenterAndNormalize has invalidated the index, rebuilds it (no-op
  /// when the index is still fresh). This is the recovery call for
  /// long-running owners (the serve-layer session refresh): without it
  /// a store that took one in-place update silently serves exact-scan
  /// latency forever. FailedPrecondition when no index was ever built.
  Status RebuildAnn();

  /// Drops the index; queries return to the exact scan.
  void DisableAnn();

  /// True when the index is built and fresh (queries take the ANN path).
  bool AnnActive() const;

 private:
  struct AnnState;  // holds the index and its staleness (see .cc)

  /// Exact top-k scan; `exclude_ids` are row ids, sorted ascending.
  std::vector<Neighbor> ExactNearest(
      const std::vector<float>& query, size_t k,
      const std::vector<size_t>& exclude_ids) const;
  std::vector<Neighbor> AnnNearest(const std::vector<float>& query, size_t k,
                                   const std::vector<size_t>& exclude_ids)
      const;
  /// Routes a query between the ANN path and the exact fallback.
  bool UseAnnFor(size_t k, size_t num_excluded) const;
  /// Cosine of `query` (norm `query_norm`, 0 when degenerate) against
  /// row `id`. Both retrieval paths score through here, so their
  /// similarities agree bit-for-bit.
  double CosineToRow(const float* query, double query_norm, size_t id) const;

  size_t dim_ = 0;
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::string> keys_;
  std::vector<std::vector<float>> vectors_;
  // Cached squared L2 norm per vector, maintained by Add and
  // CenterAndNormalize, so nearest-neighbour search does one dot per
  // candidate instead of a full cosine (3 reductions).
  std::vector<double> norms_sq_;
  // Null until EnableAnn; only mutators write it.
  std::unique_ptr<AnnState> ann_;
};

}  // namespace autodc::embedding

#endif  // AUTODC_EMBEDDING_EMBEDDING_STORE_H_
