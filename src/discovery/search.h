#ifndef AUTODC_DISCOVERY_SEARCH_H_
#define AUTODC_DISCOVERY_SEARCH_H_

#include <string>
#include <vector>

#include "src/data/table.h"
#include "src/discovery/ekg.h"
#include "src/embedding/embedding_store.h"
#include "src/text/vocabulary.h"

namespace autodc::discovery {

/// One search hit.
struct SearchResult {
  std::string table;
  double score = 0.0;
};

struct SearchConfig {
  /// Mix between the neural (embedding cosine) and lexical (tf-idf
  /// cosine) ranking signals, as in hybrid neural IR (Sec. 5.1).
  double neural_weight = 0.6;
  size_t top_k = 5;
};

/// The "Google-style search engine over the enterprise's relations" of
/// Sec. 5.1: tables are indexed by both a distributed representation
/// (mean word vector of schema + sampled values) and a tf-idf vector;
/// a free-text query is ranked against both.
class TableSearchEngine {
 public:
  TableSearchEngine(const embedding::EmbeddingStore* words,
                    const SearchConfig& config = {});

  /// Indexes the given tables (documents = schema tokens + value tokens).
  void Index(const std::vector<const data::Table*>& tables);

  /// Ranked tables for a keyword query.
  std::vector<SearchResult> Search(const std::string& query) const;

  /// Search, then expand each hit with tables the EKG marks as
  /// thematically related (Sec. 5.1's "simultaneously return other
  /// datasets that are thematically related").
  std::vector<SearchResult> SearchWithRelated(
      const std::string& query, const EnterpriseKnowledgeGraph& ekg,
      double related_discount = 0.5) const;

  size_t num_indexed() const { return table_names_.size(); }

 private:
  const embedding::EmbeddingStore* words_;
  SearchConfig config_;
  std::vector<std::string> table_names_;
  std::vector<std::vector<float>> table_vectors_;
  /// Squared L2 norm of each table vector, computed once at Index time
  /// so Search does one dot product per table instead of three
  /// reductions (cosine = dot / (|q| * |t|)).
  std::vector<double> table_norms_sq_;
  std::vector<std::unordered_map<size_t, double>> table_tfidf_;
  text::TfIdf tfidf_;
};

}  // namespace autodc::discovery

#endif  // AUTODC_DISCOVERY_SEARCH_H_
