#ifndef AUTODC_SERVE_SESSION_H_
#define AUTODC_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "src/cleaning/encoding.h"
#include "src/cleaning/imputation.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/data/table.h"
#include "src/embedding/embedding_store.h"
#include "src/nn/classifier.h"
#include "src/serve/request.h"

namespace autodc::serve {

/// Knobs for building a session's model zoo. Defaults are sized for
/// sub-second builds on the quick-bench datasets; the scorer head is
/// deliberately deep-and-narrow — per-call dispatch overhead dominates
/// per-row compute there, which is exactly the shape micro-batching
/// amortizes.
struct SessionConfig {
  /// Match-scorer MLP over |enc(a) - enc(b)| features.
  std::vector<size_t> scorer_hidden = {48, 32, 16};
  size_t scorer_epochs = 6;
  size_t scorer_batch = 32;
  /// Cap on rows sampled for the weak-supervised scorer training set.
  size_t max_train_rows = 256;
  size_t knn_k = 5;
  double outlier_threshold = 3.0;
  uint64_t seed = 17;
};

/// One dataset's curation state, shared by every tenant whose data
/// fingerprints to it: the table, its encoder, cached per-row encodings,
/// a trained DeepER-style match scorer, a KNN imputer, per-column
/// z-score stats, and a row embedding store (ANN-indexed).
///
/// Thread model: Execute/ExecuteBatch take a shared lock — any number
/// run concurrently (all model state is read-only at serve time).
/// Update/Refresh take the exclusive lock. Sessions are handed out as
/// shared_ptr, so LRU eviction can never free state under an in-flight
/// batch.
class Session {
 public:
  /// Trains the model zoo on `table`. Deterministic in (table, config):
  /// a given dataset always builds the same models.
  static Result<std::shared_ptr<Session>> Build(data::Table table,
                                                uint64_t fingerprint,
                                                const SessionConfig& config = {});

  uint64_t fingerprint() const { return fingerprint_; }
  size_t num_rows() const { return table_.num_rows(); }
  size_t encoded_dim() const { return encoder_.dim(); }
  /// Shared lock: Refresh() replaces the index under the exclusive one.
  bool AnnActive() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return store_.AnnActive();
  }

  /// Executes one request on the unbatched path (PredictProba et al.) —
  /// the sequential oracle batched execution is held byte-identical to.
  ServeResponse Execute(const ServeRequest& req) const;

  /// Executes a micro-batch: kScorePair requests coalesce into one
  /// PredictProbaBatch forward; other kinds run per-item. Responses are
  /// positionally aligned with `reqs` and byte-identical to calling
  /// Execute per request.
  std::vector<ServeResponse> ExecuteBatch(
      const std::vector<const ServeRequest*>& reqs) const;

  /// Points an existing cell at a new value (exclusive lock). Serving
  /// state goes stale until Refresh().
  Status Update(size_t row, size_t col, data::Value v);

  /// Model-cache refresh after Update()s: re-encodes every row,
  /// overwrites the embedding store (which invalidates its ANN index),
  /// rebuilds the index via EmbeddingStore::RebuildAnn, re-fits the
  /// imputer, and recomputes column stats. The scorer keeps its weights.
  Status Refresh();

 private:
  Session() = default;

  ServeResponse ExecuteLocked(const ServeRequest& req) const;
  void RecomputeColumnStats();
  std::vector<float> PairFeature(size_t a, size_t b) const;

  data::Table table_;
  uint64_t fingerprint_ = 0;
  SessionConfig config_;
  cleaning::TableEncoder encoder_;
  std::vector<std::vector<float>> encoded_;  ///< cached row encodings
  std::unique_ptr<Rng> rng_;                 ///< build-time only
  std::unique_ptr<nn::BinaryClassifier> scorer_;
  cleaning::KnnImputer imputer_;
  std::vector<bool> numeric_;
  std::vector<double> col_mean_;
  std::vector<double> col_stddev_;
  embedding::EmbeddingStore store_;
  mutable std::shared_mutex mu_;
};

}  // namespace autodc::serve

#endif  // AUTODC_SERVE_SESSION_H_
