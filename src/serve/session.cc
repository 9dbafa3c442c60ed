#include "src/serve/session.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>

#include "src/common/status.h"

namespace autodc::serve {

namespace {

std::string RowKey(size_t row) { return "row:" + std::to_string(row); }

ServeResponse ErrorResponse(std::string message) {
  ServeResponse resp;
  resp.status = ServeStatus::kError;
  resp.message = std::move(message);
  return resp;
}

}  // namespace

Result<std::shared_ptr<Session>> Session::Build(data::Table table,
                                                uint64_t fingerprint,
                                                const SessionConfig& config) {
  if (table.num_rows() == 0 || table.num_columns() == 0) {
    return Status::InvalidArgument(
        "session requires a non-empty table (rows and columns)");
  }
  auto s = std::shared_ptr<Session>(new Session());
  s->table_ = std::move(table);
  s->fingerprint_ = fingerprint;
  s->config_ = config;

  s->encoder_.Fit(s->table_);
  if (s->encoder_.dim() == 0) {
    return Status::InvalidArgument("table encodes to zero dimensions");
  }
  s->encoded_ = s->encoder_.EncodeAll(s->table_);

  // Weak-supervised match scorer over |enc(a) - enc(b)| distance
  // features: a row is a certain match of itself (zero feature vector),
  // a random other row is a near-certain non-match. A few epochs suffice
  // — the decision surface is "small encoded distance => match".
  s->rng_ = std::make_unique<Rng>(config.seed);
  nn::ClassifierConfig cc;
  cc.input_dim = s->encoder_.dim();
  cc.hidden = config.scorer_hidden;
  s->scorer_ = std::make_unique<nn::BinaryClassifier>(cc, s->rng_.get());
  size_t n = s->table_.num_rows();
  std::vector<size_t> sample =
      s->rng_->SampleIndices(n, std::min(config.max_train_rows, n));
  nn::Batch features;
  std::vector<int> labels;
  features.reserve(sample.size() * 2);
  labels.reserve(sample.size() * 2);
  for (size_t i : sample) {
    features.push_back(s->PairFeature(i, i));
    labels.push_back(1);
    if (n > 1) {
      size_t j = static_cast<size_t>(
          s->rng_->UniformInt(0, static_cast<int64_t>(n) - 2));
      if (j >= i) ++j;
      features.push_back(s->PairFeature(i, j));
      labels.push_back(0);
    }
  }
  s->scorer_->Train(features, labels, config.scorer_epochs,
                    config.scorer_batch);

  s->imputer_ = cleaning::KnnImputer(config.knn_k);
  s->imputer_.Fit(s->table_);
  s->RecomputeColumnStats();

  s->store_ = embedding::EmbeddingStore(s->encoder_.dim());
  for (size_t i = 0; i < n; ++i) {
    AUTODC_RETURN_NOT_OK(s->store_.Add(RowKey(i), s->encoded_[i]));
  }
  AUTODC_RETURN_NOT_OK(s->store_.EnableAnn());
  return s;
}

std::vector<float> Session::PairFeature(size_t a, size_t b) const {
  const std::vector<float>& ea = encoded_[a];
  const std::vector<float>& eb = encoded_[b];
  std::vector<float> f(ea.size());
  for (size_t i = 0; i < f.size(); ++i) f[i] = std::fabs(ea[i] - eb[i]);
  return f;
}

ServeResponse Session::Execute(const ServeRequest& req) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ExecuteLocked(req);
}

std::vector<ServeResponse> Session::ExecuteBatch(
    const std::vector<const ServeRequest*>& reqs) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ServeResponse> out(reqs.size());
  // kScorePair requests coalesce into one batched forward — the Gemm
  // amortization micro-batching exists for. Everything else (and
  // out-of-range pairs, which must error exactly like the sequential
  // path) runs per-item.
  std::vector<size_t> pair_slots;
  size_t n = table_.num_rows();
  for (size_t i = 0; i < reqs.size(); ++i) {
    const ServeRequest& r = *reqs[i];
    if (r.kind == RequestKind::kScorePair && r.row_a < n && r.row_b < n) {
      pair_slots.push_back(i);
    } else {
      out[i] = ExecuteLocked(r);
    }
  }
  if (!pair_slots.empty()) {
    nn::Batch features;
    features.reserve(pair_slots.size());
    for (size_t i : pair_slots) {
      features.push_back(PairFeature(reqs[i]->row_a, reqs[i]->row_b));
    }
    std::vector<double> probs = scorer_->PredictProbaBatch(features);
    for (size_t j = 0; j < pair_slots.size(); ++j) {
      out[pair_slots[j]].score = probs[j];
    }
  }
  return out;
}

ServeResponse Session::ExecuteLocked(const ServeRequest& req) const {
  ServeResponse resp;
  size_t n = table_.num_rows();
  size_t cols = table_.num_columns();
  switch (req.kind) {
    case RequestKind::kScorePair: {
      if (req.row_a >= n || req.row_b >= n) {
        return ErrorResponse("score_pair: row out of range");
      }
      resp.score = scorer_->PredictProba(PairFeature(req.row_a, req.row_b));
      return resp;
    }
    case RequestKind::kImpute: {
      if (req.row_a >= n || req.col >= cols) {
        return ErrorResponse("impute: cell out of range");
      }
      resp.value = imputer_.Impute(table_, req.row_a, req.col).ToString();
      return resp;
    }
    case RequestKind::kOutlierCheck: {
      if (req.row_a >= n || req.col >= cols) {
        return ErrorResponse("outlier_check: cell out of range");
      }
      if (!numeric_[req.col]) {
        return ErrorResponse("outlier_check: non-numeric column");
      }
      if (table_.IsNull(req.row_a, req.col)) return resp;  // null: not flagged
      bool ok = false;
      double v = table_.at(req.row_a, req.col).ToNumeric(&ok);
      // Degenerate stats (no observed values, or zero spread) flag
      // nothing — the 0-row guard, not a NaN.
      if (ok && col_stddev_[req.col] > 0.0) {
        resp.score = std::fabs(v - col_mean_[req.col]) / col_stddev_[req.col];
        resp.flagged = resp.score > config_.outlier_threshold;
      }
      return resp;
    }
    case RequestKind::kNearestRows: {
      if (req.row_a >= n) return ErrorResponse("nearest_rows: row out of range");
      auto r = store_.Nearest(RowKey(req.row_a), req.k);
      if (!r.ok()) return ErrorResponse(r.status().ToString());
      for (const embedding::Neighbor& nb : r.ValueOrDie()) {
        RowNeighbor out;
        out.row = static_cast<size_t>(
            std::strtoull(nb.key.c_str() + 4, nullptr, 10));
        out.similarity = nb.similarity;
        resp.neighbors.push_back(out);
      }
      return resp;
    }
  }
  return ErrorResponse("unknown request kind");
}

Status Session::Update(size_t row, size_t col, data::Value v) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (row >= table_.num_rows() || col >= table_.num_columns()) {
    return Status::OutOfRange("Update: cell out of range");
  }
  table_.Set(row, col, std::move(v));
  return Status::OK();
}

Status Session::Refresh() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  encoded_ = encoder_.EncodeAll(table_);
  for (size_t i = 0; i < encoded_.size(); ++i) {
    AUTODC_RETURN_NOT_OK(store_.Add(RowKey(i), encoded_[i]));
  }
  // The overwrites above left the ANN index stale (exact-scan
  // fallback); recover sub-linear retrieval in place.
  AUTODC_RETURN_NOT_OK(store_.RebuildAnn());
  imputer_.Fit(table_);
  RecomputeColumnStats();
  return Status::OK();
}

void Session::RecomputeColumnStats() {
  size_t cols = table_.num_columns();
  size_t n = table_.num_rows();
  numeric_.assign(cols, false);
  col_mean_.assign(cols, 0.0);
  col_stddev_.assign(cols, 0.0);
  for (size_t c = 0; c < cols; ++c) {
    if (!encoder_.IsNumeric(c)) continue;
    numeric_[c] = true;
    double sum = 0.0;
    size_t cnt = 0;
    for (size_t r = 0; r < n; ++r) {
      if (table_.IsNull(r, c)) continue;
      bool ok = false;
      double v = table_.at(r, c).ToNumeric(&ok);
      if (ok) {
        sum += v;
        ++cnt;
      }
    }
    if (cnt == 0) continue;  // mean/stddev stay 0: nothing ever flags
    double mean = sum / static_cast<double>(cnt);
    double ss = 0.0;
    for (size_t r = 0; r < n; ++r) {
      if (table_.IsNull(r, c)) continue;
      bool ok = false;
      double v = table_.at(r, c).ToNumeric(&ok);
      if (ok) ss += (v - mean) * (v - mean);
    }
    col_mean_[c] = mean;
    col_stddev_[c] = std::sqrt(ss / static_cast<double>(cnt));
  }
}

}  // namespace autodc::serve
