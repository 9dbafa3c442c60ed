#ifndef AUTODC_ER_BLOCKING_H_
#define AUTODC_ER_BLOCKING_H_

#include <cstdint>
#include <vector>

#include "src/ann/hnsw.h"
#include "src/data/table.h"
#include "src/er/evaluation.h"

namespace autodc::er {

/// Classical blocking: candidate pairs are rows sharing a blocking key
/// derived from ONE attribute (here: the attribute's first word token,
/// lowercased). This is the "traditional methods that consider only few
/// attributes" baseline of Sec. 5.2 — cheap, but brittle when the keyed
/// attribute is dirty.
std::vector<RowPair> AttributeBlocking(const data::Table& left,
                                       const data::Table& right,
                                       size_t column);

/// Random-hyperplane LSH blocking over dense tuple embeddings — DeepER's
/// blocking contribution: it sees ALL attributes through the embedding
/// and produces far smaller candidate sets at equal recall.
class LshBlocker {
 public:
  /// `bits` hyperplanes per table and `tables` independent hash tables;
  /// more tables raise recall, more bits shrink buckets.
  LshBlocker(size_t dim, size_t bits, size_t tables, uint64_t seed = 42);

  /// Candidate pairs: (l, r) collide in at least one hash table.
  std::vector<RowPair> Candidates(
      const std::vector<std::vector<float>>& left,
      const std::vector<std::vector<float>>& right) const;

  size_t bits() const { return bits_; }
  size_t tables() const { return num_tables_; }

 private:
  uint64_t HashVector(const std::vector<float>& v, size_t table) const;

  size_t dim_;
  size_t bits_;
  size_t num_tables_;
  /// hyperplanes_[t * bits + b] is one random normal vector of length dim.
  std::vector<std::vector<float>> hyperplanes_;
};

/// kNN blocking over dense tuple embeddings through the HNSW index
/// (ROADMAP item 3, sub-linear retrieval): the right table's vectors
/// are indexed once, then every left row retrieves its k most similar
/// right rows as candidates. Unlike LSH, the candidate count is an
/// exact budget (≤ k per left row) rather than an emergent bucket-size
/// distribution, and cost grows ~n·log n instead of with bucket skew.
/// Small right tables take an exact top-k scan instead of a graph
/// build (same candidates, recall 1.0 against the scan by definition).
/// A quantized `config.quant` (DESIGN.md §11) takes the low-precision
/// path; candidates are a recall set, so quantized graph distances need
/// no rescoring here.
class AnnBlocker {
 public:
  explicit AnnBlocker(size_t k = 10, const ann::HnswConfig& config = {});

  /// Candidate pairs: for each left row, its k nearest right rows by
  /// cosine. Queries run in parallel; output is ordered by left row
  /// and identical for any thread count.
  std::vector<RowPair> Candidates(
      const std::vector<std::vector<float>>& left,
      const std::vector<std::vector<float>>& right) const;

  size_t k() const { return k_; }

 private:
  size_t k_;
  ann::HnswConfig config_;
  /// Right tables at or below this size use the exact scan.
  static constexpr size_t kExactThreshold = 128;
};

}  // namespace autodc::er

#endif  // AUTODC_ER_BLOCKING_H_
