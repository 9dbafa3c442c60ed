#include "src/discovery/search.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/nn/kernels.h"
#include "src/text/similarity.h"
#include "src/text/tokenizer.h"

namespace autodc::discovery {

namespace {
std::vector<std::string> TableTokens(const data::Table& t) {
  std::vector<std::string> tokens = text::Tokenize(t.name());
  for (const data::Column& c : t.schema().columns()) {
    for (std::string& tok : text::Tokenize(c.name)) {
      tokens.push_back(std::move(tok));
    }
  }
  for (size_t c = 0; c < t.num_columns(); ++c) {
    size_t taken = 0;
    for (const data::Value& v : t.DistinctColumnValues(c)) {
      for (std::string& tok : text::Tokenize(v.ToString())) {
        tokens.push_back(std::move(tok));
        if (++taken >= 50) break;
      }
      if (taken >= 50) break;
    }
  }
  return tokens;
}
}  // namespace

TableSearchEngine::TableSearchEngine(const embedding::EmbeddingStore* words,
                                     const SearchConfig& config)
    : words_(words), config_(config) {}

void TableSearchEngine::Index(const std::vector<const data::Table*>& tables) {
  table_names_.clear();
  table_vectors_.clear();
  table_norms_sq_.clear();
  table_tfidf_.clear();
  std::vector<std::vector<std::string>> docs;
  for (const data::Table* t : tables) {
    table_names_.push_back(t->name());
    docs.push_back(TableTokens(*t));
  }
  tfidf_ = text::TfIdf();
  tfidf_.Fit(docs);
  for (const auto& doc : docs) {
    table_vectors_.push_back(words_->AverageOf(doc));
    const std::vector<float>& v = table_vectors_.back();
    table_norms_sq_.push_back(nn::kernels::SumSqF32(v.data(), v.size()));
    table_tfidf_.push_back(tfidf_.Transform(doc));
  }
}

std::vector<SearchResult> TableSearchEngine::Search(
    const std::string& query) const {
  std::vector<std::string> qtokens = text::Tokenize(query);
  std::vector<float> qvec = words_->AverageOf(qtokens);
  auto qtfidf = tfidf_.Transform(qtokens);
  double qnorm_sq = nn::kernels::SumSqF32(qvec.data(), qvec.size());

  auto score_table = [&](size_t i) {
    // cosine(q, t) with |q|^2 hoisted out of the loop and |t|^2 cached
    // at Index time; identical accumulation order to CosineSimilarity.
    double neural = 0.0;
    if (qnorm_sq > 0.0 && table_norms_sq_[i] > 0.0 &&
        qvec.size() == table_vectors_[i].size()) {
      double dot = nn::kernels::DotF32D(qvec.data(), table_vectors_[i].data(),
                                        qvec.size());
      neural = dot / (std::sqrt(qnorm_sq) * std::sqrt(table_norms_sq_[i]));
    }
    double lexical = text::TfIdf::SparseCosine(qtfidf, table_tfidf_[i]);
    return SearchResult{table_names_[i],
                        config_.neural_weight * neural +
                            (1.0 - config_.neural_weight) * lexical};
  };

  std::vector<SearchResult> out;
  for (size_t i = 0; i < table_names_.size(); ++i) {
    out.push_back(score_table(i));
  }
  std::sort(out.begin(), out.end(),
            [](const SearchResult& a, const SearchResult& b) {
              return a.score > b.score;
            });
  if (out.size() > config_.top_k) out.resize(config_.top_k);
  return out;
}

std::vector<SearchResult> TableSearchEngine::SearchWithRelated(
    const std::string& query, const EnterpriseKnowledgeGraph& ekg,
    double related_discount) const {
  std::vector<SearchResult> direct = Search(query);
  std::unordered_map<std::string, double> scores;
  for (const SearchResult& r : direct) scores[r.table] = r.score;
  for (const SearchResult& r : direct) {
    for (const auto& [related, weight] : ekg.RelatedTables(r.table)) {
      double bonus = r.score * weight * related_discount;
      double& cur = scores[related];
      cur = std::max(cur, bonus);
    }
  }
  std::vector<SearchResult> out;
  for (const auto& [table, score] : scores) {
    out.push_back(SearchResult{table, score});
  }
  std::sort(out.begin(), out.end(),
            [](const SearchResult& a, const SearchResult& b) {
              return a.score > b.score;
            });
  return out;
}

}  // namespace autodc::discovery
