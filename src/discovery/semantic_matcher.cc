#include "src/discovery/semantic_matcher.h"

#include <algorithm>
#include <utility>

#include "src/nn/kernels.h"
#include "src/text/similarity.h"
#include "src/text/tokenizer.h"

namespace autodc::discovery {

namespace {

// All vectors in one EmbeddingStore share a dimension; the size guard
// mirrors text::CosineSimilarity's mismatch semantics all the same.
double VecCosine(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  return nn::kernels::CosineF32(a.data(), b.data(), a.size());
}

}  // namespace

double CoherentGroupSimilarity(const embedding::EmbeddingStore& words,
                               const std::vector<std::string>& group_a,
                               const std::vector<std::string>& group_b) {
  double total = 0.0;
  size_t pairs = 0;
  for (const std::string& a : group_a) {
    const std::vector<float>* va = words.Find(a);
    if (va == nullptr) continue;
    for (const std::string& b : group_b) {
      const std::vector<float>* vb = words.Find(b);
      if (vb == nullptr) continue;
      total += VecCosine(*va, *vb);
      ++pairs;
    }
  }
  if (pairs == 0) return 0.0;
  return total / static_cast<double>(pairs);
}

double BestMatchGroupSimilarity(const embedding::EmbeddingStore& words,
                                const std::vector<std::string>& group_a,
                                const std::vector<std::string>& group_b) {
  const std::vector<std::string>& small =
      group_a.size() <= group_b.size() ? group_a : group_b;
  const std::vector<std::string>& large =
      group_a.size() <= group_b.size() ? group_b : group_a;
  double total = 0.0;
  size_t counted = 0;
  for (const std::string& a : small) {
    const std::vector<float>* va = words.Find(a);
    if (va == nullptr) continue;
    double best = -1.0;
    for (const std::string& b : large) {
      const std::vector<float>* vb = words.Find(b);
      if (vb == nullptr) continue;
      best = std::max(best, VecCosine(*va, *vb));
    }
    if (best > -1.0) {
      total += best;
      ++counted;
    }
  }
  if (counted == 0) return 0.0;
  return total / static_cast<double>(counted);
}

namespace {

std::vector<std::string> NameGroup(const data::Table& t, size_t col) {
  return text::Tokenize(t.schema().column(col).name);
}

std::vector<std::string> ValueGroup(const data::Table& t, size_t col,
                                    size_t max_values) {
  std::vector<std::string> group;
  for (const data::Value& v : t.DistinctColumnValues(col)) {
    for (std::string& tok : text::Tokenize(v.ToString())) {
      group.push_back(std::move(tok));
      if (group.size() >= max_values) return group;
    }
  }
  return group;
}

bool IsNumericColumn(const data::Table& t, size_t col) {
  data::ValueType ty = t.schema().column(col).type;
  return ty == data::ValueType::kInt || ty == data::ValueType::kDouble;
}

}  // namespace

double SemanticColumnMatcher::ScorePair(const data::Table& a, size_t col_a,
                                        const data::Table& b,
                                        size_t col_b) const {
  double name_sim = CoherentGroupSimilarity(*words_, NameGroup(a, col_a),
                                            NameGroup(b, col_b));
  double value_sim = 0.0;
  if (!IsNumericColumn(a, col_a) && !IsNumericColumn(b, col_b)) {
    value_sim = BestMatchGroupSimilarity(
        *words_, ValueGroup(a, col_a, config_.max_values_per_column),
        ValueGroup(b, col_b, config_.max_values_per_column));
  }
  return config_.name_weight * name_sim +
         (1.0 - config_.name_weight) * value_sim;
}

std::vector<ColumnMatch> SemanticColumnMatcher::MatchColumns(
    const data::Table& a, const data::Table& b) const {
  std::vector<ColumnMatch> out;
  for (size_t i = 0; i < a.num_columns(); ++i) {
    for (size_t j = 0; j < b.num_columns(); ++j) {
      double score = ScorePair(a, i, b, j);
      if (score < config_.min_score) continue;
      out.push_back(ColumnMatch{a.name(), a.schema().column(i).name,
                                b.name(), b.schema().column(j).name, score});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ColumnMatch& x, const ColumnMatch& y) {
              return x.score > y.score;
            });
  return out;
}

std::vector<ColumnMatch> SemanticColumnMatcher::MatchLake(
    const std::vector<const data::Table*>& tables) const {
  std::vector<ColumnMatch> out;
  for (size_t i = 0; i < tables.size(); ++i) {
    for (size_t j = i + 1; j < tables.size(); ++j) {
      std::vector<ColumnMatch> pair = MatchColumns(*tables[i], *tables[j]);
      out.insert(out.end(), pair.begin(), pair.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ColumnMatch& x, const ColumnMatch& y) {
              return x.score > y.score;
            });
  return out;
}

std::vector<ColumnMatch> SyntacticColumnMatches(
    const std::vector<const data::Table*>& tables) {
  std::vector<ColumnMatch> out;
  for (size_t i = 0; i < tables.size(); ++i) {
    for (size_t j = i + 1; j < tables.size(); ++j) {
      const data::Table& a = *tables[i];
      const data::Table& b = *tables[j];
      for (size_t ca = 0; ca < a.num_columns(); ++ca) {
        for (size_t cb = 0; cb < b.num_columns(); ++cb) {
          const std::string& na = a.schema().column(ca).name;
          const std::string& nb = b.schema().column(cb).name;
          double score = 0.5 * text::JaroWinklerSimilarity(na, nb) +
                         0.5 * text::TokenJaccard(na, nb);
          out.push_back(ColumnMatch{a.name(), na, b.name(), nb, score});
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ColumnMatch& x, const ColumnMatch& y) {
              return x.score > y.score;
            });
  return out;
}

}  // namespace autodc::discovery
