#ifndef AUTODC_ANN_HNSW_H_
#define AUTODC_ANN_HNSW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/nn/kernels.h"

// Sub-linear nearest-neighbour retrieval (ROADMAP item 3): an HNSW
// graph index over dense float vectors, scored by cosine similarity
// through the SIMD dot kernels with per-row inverse norms cached at
// insert time. Every retrieval-shaped consumer (LSH/kNN blocking,
// semantic schema matching, table search, analogy/synthesis lookup)
// can route through this instead of the O(n·dim) exact scan.
//
// Determinism contract: a node's level depends only on (seed, node id),
// never on insertion order or thread count. Bulk builds insert a
// sequential prefix one-by-one, then proceed in fixed-size batches:
// each batch searches the FROZEN pre-batch graph for candidate
// neighbours in parallel (pure reads), and links serially in id order.
// Chunking never feeds back into results, so an index built from the
// same (vectors, config) is identical for any thread count, and
// searches over it are reproducible bit-for-bit.
namespace autodc::ann {

struct HnswConfig {
  /// Max out-degree per node on levels > 0; level 0 allows 2*M.
  size_t M = 16;
  /// Beam width while inserting (recall/build-time trade-off).
  size_t ef_construction = 200;
  /// Default beam width while searching; raised per query when the
  /// caller asks for more than ef_search results.
  size_t ef_search = 64;
  /// Level-assignment seed (mixed with the node id, see LevelFor).
  uint64_t seed = 42;
  /// Bulk-build batch: candidate search parallelizes within a batch.
  /// Fixed independently of thread count so builds are reproducible.
  size_t batch_size = 256;
  /// Nodes inserted strictly one-by-one before batching starts, so
  /// early batches search a well-connected graph.
  size_t sequential_prefix = 1024;
  /// Row storage precision (DESIGN.md §11). Below fp32 every graph
  /// distance evaluation runs on the quantized rows (int8: exact
  /// integer dot + cached per-row scale/zero-point/sum; bf16: float dot
  /// on rounded values); similarities returned by Search are then the
  /// quantized-row cosines. Callers that need fp32-level recall
  /// over-fetch a small shortlist and re-score it in fp32 against their
  /// own rows (bench_ann's int8 arm shows the pattern).
  nn::kernels::Quant quant = nn::kernels::Quant::kFp32;
};

/// One search hit: row id in insertion order plus cosine similarity.
struct ScoredId {
  size_t id = 0;
  double similarity = 0.0;
};

class HnswIndex {
 public:
  explicit HnswIndex(size_t dim, const HnswConfig& config = {});

  /// Incremental insert (the streaming-arc path): links one vector of
  /// dim() floats into the graph and returns its id. Not thread-safe;
  /// callers serialize Add against Add/Build/Search.
  size_t Add(const float* v);

  /// Bulk append: inserts every row (each dim() floats) with the
  /// batched-parallel scheme described above. Equivalent to calling
  /// Add per row when the graph stays within sequential_prefix.
  void Build(const std::vector<const float*>& rows);

  /// Top-k by cosine similarity, best first (ties broken by lower id).
  /// `ef` overrides config().ef_search when nonzero; the effective beam
  /// is always at least k. Read-only and safe to call concurrently
  /// from many threads once construction is done.
  std::vector<ScoredId> Search(const float* query, size_t k,
                               size_t ef = 0) const;

  size_t size() const { return size_; }
  size_t dim() const { return dim_; }
  const HnswConfig& config() const { return config_; }
  /// Highest populated level (-1 while empty).
  int max_level() const { return max_level_; }
  /// Directed edge count over all levels (O(n) walk; used by gauges).
  size_t num_edges() const;
  /// Heap bytes held by row storage + graph structure (O(n) walk; the
  /// memory half of the quantization bench gate).
  size_t resident_bytes() const;

  /// Publishes ann.nodes / ann.edges / ann.max_level / ann.bytes gauges.
  void PublishStats() const;

 private:
  using Id = uint32_t;

  /// (similarity, id) with a total order: higher similarity first,
  /// lower id on ties — the tie-break that makes every heap and sort
  /// in the index deterministic.
  struct Candidate {
    double sim;
    Id id;
  };

  /// Search candidates found for one node per level, computed against
  /// the frozen graph during a bulk-build batch.
  struct PendingLink {
    std::vector<std::vector<Candidate>> per_level;  // [level] best-first
  };

  /// A query in whatever representation the index's storage mode
  /// scores against, plus the fp32 inverse norm. Built once per search
  /// (quantizing the query a single time) or borrowed from a stored
  /// row during construction.
  struct QueryView {
    const float* f32 = nullptr;
    const std::int8_t* q8 = nullptr;
    nn::kernels::Int8Params q8_params;
    std::int32_t q8_sum = 0;
    const std::uint16_t* bf16 = nullptr;
    double inv = 0.0;  // 1/|q| (0 for zero-norm queries)
  };

  int LevelFor(size_t id) const;
  const float* Row(Id id) const { return data_.data() + size_t(id) * dim_; }
  const std::int8_t* Q8Row(Id id) const {
    return q8_data_.data() + size_t(id) * dim_;
  }
  const std::uint16_t* Bf16Row(Id id) const {
    return bf16_data_.data() + size_t(id) * dim_;
  }
  /// QueryView borrowing stored row `id` (cached params, no conversion).
  QueryView RowQuery(Id id) const;
  double SimTo(const QueryView& q, Id id, size_t* evals) const;
  double SimBetween(Id a, Id b, size_t* evals) const;

  /// Appends the raw vector (data in the configured precision, inverse
  /// norm of the stored representation, level, empty links).
  Id AppendRow(const float* v);
  /// Greedy single-entry descent from `from_level` down to just above
  /// `to_level`.
  Id GreedyDescend(const QueryView& q, Id entry, int from_level,
                   int to_level, size_t* evals) const;
  /// Beam search at one level; returns up to ef candidates, best first.
  std::vector<Candidate> SearchLayer(const QueryView& q, Id entry, int level,
                                     size_t ef, size_t* evals) const;
  /// The select-neighbours diversity heuristic (HNSW Algorithm 4), with
  /// pruned-candidate backfill to keep degrees full.
  std::vector<Id> SelectNeighbors(const std::vector<Candidate>& cands,
                                  size_t m, size_t* evals) const;
  /// Candidate search phase of one insert against the current graph
  /// (read-only; what bulk-build batches run in parallel).
  PendingLink FindCandidates(Id id, size_t* evals) const;
  /// Link phase: wires `id` into the graph from its candidate lists,
  /// prunes over-full neighbours, and updates the entry point.
  void LinkNode(Id id, PendingLink&& pending, size_t* evals);

  size_t dim_;
  HnswConfig config_;
  double level_mult_;  // 1 / ln(M)
  size_t size_ = 0;

  // Row storage: exactly one of data_ / q8_data_ / bf16_data_ is
  // populated, per config_.quant.
  std::vector<float> data_;            // fp32: size_ * dim_, row-major
  std::vector<std::int8_t> q8_data_;   // int8: size_ * dim_, row-major
  std::vector<nn::kernels::Int8Params> q8_params_;  // int8: per row
  std::vector<std::int32_t> q8_sums_;  // int8: per-row element sums
  std::vector<std::uint16_t> bf16_data_;  // bf16: size_ * dim_
  std::vector<float> scratch_;     // serial-phase dequant scratch
  std::vector<double> inv_norms_;  // 1/|v| of the STORED representation
  std::vector<int> levels_;
  /// links_[node][level] -> neighbour ids (level 0 capped at 2M, else M).
  std::vector<std::vector<std::vector<Id>>> links_;
  Id entry_ = 0;
  int max_level_ = -1;
};

}  // namespace autodc::ann

#endif  // AUTODC_ANN_HNSW_H_
