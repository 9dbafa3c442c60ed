#ifndef AUTODC_DISCOVERY_SEMANTIC_MATCHER_H_
#define AUTODC_DISCOVERY_SEMANTIC_MATCHER_H_

#include <string>
#include <vector>

#include "src/data/table.h"
#include "src/embedding/embedding_store.h"

namespace autodc::discovery {

/// A scored column-pair candidate produced by a matcher.
struct ColumnMatch {
  std::string table_a;
  std::string column_a;
  std::string table_b;
  std::string column_b;
  double score = 0.0;
};

/// Coherent-group similarity (Sec. 5.1, Seeping Semantics [21]): a group
/// of words is similar to another group if the *average pairwise*
/// embedding similarity between all cross pairs is high. Handles
/// multi-word phrases and out-of-vocabulary terms (OOV words are
/// skipped; empty groups score 0).
double CoherentGroupSimilarity(const embedding::EmbeddingStore& words,
                               const std::vector<std::string>& group_a,
                               const std::vector<std::string>& group_b);

/// Best-match group similarity (Monge-Elkan lifted to embeddings): for
/// each token of the smaller group, its best cosine against the other
/// group, averaged. Columns sharing (or synonymous with) each other's
/// value vocabulary score near 1 even when each group also contains many
/// internally-dissimilar values — the dilution the plain pairwise
/// average suffers from.
double BestMatchGroupSimilarity(const embedding::EmbeddingStore& words,
                                const std::vector<std::string>& group_a,
                                const std::vector<std::string>& group_b);

struct SemanticMatcherConfig {
  /// Weight of column-NAME group similarity vs column-VALUE group
  /// similarity in the combined score.
  double name_weight = 0.4;
  /// How many distinct values per column feed the value group.
  size_t max_values_per_column = 30;
  /// Pairs scoring below this are not reported.
  double min_score = 0.0;
};

/// The embedding-based semantic matcher: scores every cross-table column
/// pair by combining coherent-group similarity of the column names and
/// of (samples of) the column values. Numeric columns participate via
/// their names only.
class SemanticColumnMatcher {
 public:
  SemanticColumnMatcher(const embedding::EmbeddingStore* words,
                        const SemanticMatcherConfig& config = {})
      : words_(words), config_(config) {}

  /// All column pairs across the two tables, scored, descending.
  std::vector<ColumnMatch> MatchColumns(const data::Table& a,
                                        const data::Table& b) const;

  /// All cross-table column pairs over a lake of tables.
  std::vector<ColumnMatch> MatchLake(
      const std::vector<const data::Table*>& tables) const;

  /// Score for one specific column pair.
  double ScorePair(const data::Table& a, size_t col_a, const data::Table& b,
                   size_t col_b) const;

 private:
  const embedding::EmbeddingStore* words_;
  SemanticMatcherConfig config_;
};

/// The syntactic baseline the paper says produces spurious results: ranks
/// column pairs purely by name string similarity (Jaro-Winkler over the
/// raw names plus token Jaccard).
std::vector<ColumnMatch> SyntacticColumnMatches(
    const std::vector<const data::Table*>& tables);

}  // namespace autodc::discovery

#endif  // AUTODC_DISCOVERY_SEMANTIC_MATCHER_H_
