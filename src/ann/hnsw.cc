#include "src/ann/hnsw.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/nn/kernels.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace autodc::ann {

namespace {

/// Epoch-stamped visited set, reused across queries per thread so a
/// search costs no allocation or memset in steady state. Shared by all
/// indexes on a thread (sized to the largest seen); stamps from one
/// query can never leak into another because the epoch advances first.
struct VisitedSet {
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;

  void Begin(size_t n) {
    if (stamp.size() < n) stamp.resize(n, 0);
    if (++epoch == 0) {
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
  }
  bool TestAndSet(uint32_t id) {
    if (stamp[id] == epoch) return true;
    stamp[id] = epoch;
    return false;
  }
};

thread_local VisitedSet t_visited;

// Per-thread query-conversion scratch for quantized indexes: a search
// quantizes its query exactly once into these, then every distance
// evaluation runs on the converted form.
thread_local std::vector<std::int8_t> t_query_q8;
thread_local std::vector<std::uint16_t> t_query_bf16;

}  // namespace

HnswIndex::HnswIndex(size_t dim, const HnswConfig& config)
    : dim_(dim), config_(config) {
  if (config_.M < 2) config_.M = 2;
  if (config_.ef_construction < config_.M) config_.ef_construction = config_.M;
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.sequential_prefix == 0) config_.sequential_prefix = 1;
  level_mult_ = 1.0 / std::log(static_cast<double>(config_.M));
}

int HnswIndex::LevelFor(size_t id) const {
  // The level is a pure function of (seed, id): golden-ratio mixing
  // into an Rng draw, so bulk and incremental builds — and any insert
  // interleaving — assign identical levels.
  Rng rng(config_.seed ^ ((id + 1) * 0x9E3779B97F4A7C15ULL));
  double u = rng.Uniform();
  if (u < 1e-300) u = 1e-300;
  int level = static_cast<int>(-std::log(u) * level_mult_);
  return std::min(level, 30);
}

HnswIndex::QueryView HnswIndex::RowQuery(Id id) const {
  QueryView q;
  q.inv = inv_norms_[id];
  switch (config_.quant) {
    case nn::kernels::Quant::kFp32:
      q.f32 = Row(id);
      break;
    case nn::kernels::Quant::kInt8:
    case nn::kernels::Quant::kInt8Sym:
      q.q8 = Q8Row(id);
      q.q8_params = q8_params_[id];
      q.q8_sum = q8_sums_[id];
      break;
    case nn::kernels::Quant::kBf16:
      q.bf16 = Bf16Row(id);
      break;
  }
  return q;
}

double HnswIndex::SimTo(const QueryView& q, Id id, size_t* evals) const {
  ++*evals;
  double dot;
  switch (config_.quant) {
    case nn::kernels::Quant::kInt8:
    case nn::kernels::Quant::kInt8Sym:
      dot = nn::kernels::DequantDotD(
          nn::kernels::DotI8I32(q.q8, Q8Row(id), dim_), q.q8_params,
          q.q8_sum, q8_params_[id], q8_sums_[id], dim_);
      break;
    case nn::kernels::Quant::kBf16:
      dot = nn::kernels::DotBf16D(q.bf16, Bf16Row(id), dim_);
      break;
    case nn::kernels::Quant::kFp32:
    default:
      dot = nn::kernels::DotF32D(q.f32, Row(id), dim_);
      break;
  }
  return dot * q.inv * inv_norms_[id];
}

double HnswIndex::SimBetween(Id a, Id b, size_t* evals) const {
  ++*evals;
  double dot;
  switch (config_.quant) {
    case nn::kernels::Quant::kInt8:
    case nn::kernels::Quant::kInt8Sym:
      dot = nn::kernels::DequantDotD(
          nn::kernels::DotI8I32(Q8Row(a), Q8Row(b), dim_), q8_params_[a],
          q8_sums_[a], q8_params_[b], q8_sums_[b], dim_);
      break;
    case nn::kernels::Quant::kBf16:
      dot = nn::kernels::DotBf16D(Bf16Row(a), Bf16Row(b), dim_);
      break;
    case nn::kernels::Quant::kFp32:
    default:
      dot = nn::kernels::DotF32D(Row(a), Row(b), dim_);
      break;
  }
  return dot * inv_norms_[a] * inv_norms_[b];
}

HnswIndex::Id HnswIndex::AppendRow(const float* v) {
  Id id = static_cast<Id>(size_);
  double norm_sq;
  switch (config_.quant) {
    case nn::kernels::Quant::kInt8:
    case nn::kernels::Quant::kInt8Sym: {
      nn::kernels::Int8Params params = nn::kernels::ComputeInt8Params(
          v, dim_, config_.quant == nn::kernels::Quant::kInt8Sym);
      q8_data_.resize(q8_data_.size() + dim_);
      std::int8_t* row = q8_data_.data() + size_t(id) * dim_;
      nn::kernels::QuantizeI8F32(v, dim_, params, row);
      q8_params_.push_back(params);
      q8_sums_.push_back(nn::kernels::SumI8I32(row, dim_));
      // Norms come from the dequantized representation so graph sims
      // use the same geometry the stored rows actually encode.
      scratch_.resize(dim_);
      nn::kernels::DequantizeI8F32(row, dim_, params, scratch_.data());
      norm_sq = nn::kernels::SumSqF32(scratch_.data(), dim_);
      break;
    }
    case nn::kernels::Quant::kBf16: {
      bf16_data_.resize(bf16_data_.size() + dim_);
      std::uint16_t* row = bf16_data_.data() + size_t(id) * dim_;
      nn::kernels::F32ToBf16(v, dim_, row);
      scratch_.resize(dim_);
      nn::kernels::Bf16ToF32(row, dim_, scratch_.data());
      norm_sq = nn::kernels::SumSqF32(scratch_.data(), dim_);
      break;
    }
    case nn::kernels::Quant::kFp32:
    default:
      data_.insert(data_.end(), v, v + dim_);
      norm_sq = nn::kernels::SumSqF32(v, dim_);
      break;
  }
  inv_norms_.push_back(norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 0.0);
  int level = LevelFor(id);
  levels_.push_back(level);
  links_.emplace_back(static_cast<size_t>(level) + 1);
  for (int lev = 0; lev <= level; ++lev) {
    links_.back()[lev].reserve((lev == 0 ? 2 * config_.M : config_.M) + 1);
  }
  ++size_;
  return id;
}

HnswIndex::Id HnswIndex::GreedyDescend(const QueryView& q, Id entry,
                                       int from_level, int to_level,
                                       size_t* evals) const {
  Id cur = entry;
  double best = SimTo(q, cur, evals);
  for (int lev = from_level; lev > to_level; --lev) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (Id nb : links_[cur][lev]) {
        double s = SimTo(q, nb, evals);
        // Strictly increasing (sim, -id) keeps the walk terminating
        // and the chosen node independent of neighbour-list order.
        if (s > best || (s == best && nb < cur)) {
          best = s;
          cur = nb;
          improved = true;
        }
      }
    }
  }
  return cur;
}

std::vector<HnswIndex::Candidate> HnswIndex::SearchLayer(
    const QueryView& q, Id entry, int level, size_t ef,
    size_t* evals) const {
  auto closer = [](const Candidate& a, const Candidate& b) {
    return a.sim > b.sim || (a.sim == b.sim && a.id < b.id);
  };
  // Frontier: closest unexpanded first. Results: worst kept on top so
  // it pops first once the beam is full.
  auto frontier_order = [&](const Candidate& a, const Candidate& b) {
    return closer(b, a);
  };
  std::priority_queue<Candidate, std::vector<Candidate>,
                      decltype(frontier_order)>
      frontier(frontier_order);
  std::priority_queue<Candidate, std::vector<Candidate>, decltype(closer)>
      results(closer);

  VisitedSet& visited = t_visited;
  visited.Begin(size_);
  visited.TestAndSet(entry);
  Candidate first{SimTo(q, entry, evals), entry};
  frontier.push(first);
  results.push(first);

  while (!frontier.empty()) {
    Candidate c = frontier.top();
    if (results.size() >= ef && c.sim < results.top().sim) break;
    frontier.pop();
    for (Id nb : links_[c.id][level]) {
      if (visited.TestAndSet(nb)) continue;
      double s = SimTo(q, nb, evals);
      if (results.size() < ef || s > results.top().sim ||
          (s == results.top().sim && nb < results.top().id)) {
        frontier.push(Candidate{s, nb});
        results.push(Candidate{s, nb});
        if (results.size() > ef) results.pop();
      }
    }
  }

  std::vector<Candidate> out;
  out.reserve(results.size());
  while (!results.empty()) {
    out.push_back(results.top());
    results.pop();
  }
  std::reverse(out.begin(), out.end());  // best first
  return out;
}

std::vector<HnswIndex::Id> HnswIndex::SelectNeighbors(
    const std::vector<Candidate>& cands, size_t m, size_t* evals) const {
  std::vector<Id> out;
  if (cands.size() <= m) {
    out.reserve(cands.size());
    for (const Candidate& c : cands) out.push_back(c.id);
    return out;
  }
  out.reserve(m);
  // Diversity heuristic: keep a candidate only if it is closer to the
  // query than to every already-selected neighbour, so the kept edges
  // spread across directions instead of clustering. Pruned candidates
  // backfill remaining slots (hnswlib's keep-pruned-connections) to
  // hold degrees — and graph connectivity — up on clustered data.
  std::vector<Candidate> pruned;
  for (const Candidate& c : cands) {
    if (out.size() >= m) break;
    bool diverse = true;
    for (Id s : out) {
      if (SimBetween(c.id, s, evals) > c.sim) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      out.push_back(c.id);
    } else {
      pruned.push_back(c);
    }
  }
  for (size_t i = 0; i < pruned.size() && out.size() < m; ++i) {
    out.push_back(pruned[i].id);
  }
  return out;
}

HnswIndex::PendingLink HnswIndex::FindCandidates(Id id, size_t* evals) const {
  PendingLink pending;
  if (max_level_ < 0) return pending;  // first node: nothing to search
  QueryView q = RowQuery(id);
  int level = levels_[id];
  int top = std::min(level, max_level_);
  pending.per_level.resize(static_cast<size_t>(top) + 1);
  Id ep = entry_;
  if (max_level_ > level) {
    ep = GreedyDescend(q, entry_, max_level_, level, evals);
  }
  for (int lev = top; lev >= 0; --lev) {
    std::vector<Candidate> found =
        SearchLayer(q, ep, lev, config_.ef_construction, evals);
    ep = found.front().id;
    pending.per_level[static_cast<size_t>(lev)] = std::move(found);
  }
  return pending;
}

void HnswIndex::LinkNode(Id id, PendingLink&& pending, size_t* evals) {
  int level = levels_[id];
  if (max_level_ < 0) {
    entry_ = id;
    max_level_ = level;
    return;
  }
  for (int lev = static_cast<int>(pending.per_level.size()) - 1; lev >= 0;
       --lev) {
    std::vector<Candidate>& cands = pending.per_level[static_cast<size_t>(lev)];
    if (cands.empty()) continue;
    size_t m = lev == 0 ? 2 * config_.M : config_.M;
    std::vector<Id> neighbors = SelectNeighbors(cands, m, evals);
    links_[id][static_cast<size_t>(lev)] = neighbors;
    for (Id nb : neighbors) {
      std::vector<Id>& nb_links = links_[nb][static_cast<size_t>(lev)];
      nb_links.push_back(id);
      if (nb_links.size() <= m) continue;
      // Over-full neighbour: re-select its list with the same heuristic
      // over fresh similarities (best-first, deterministic tie-break).
      std::vector<Candidate> nb_cands;
      nb_cands.reserve(nb_links.size());
      for (Id other : nb_links) {
        nb_cands.push_back(Candidate{SimBetween(nb, other, evals), other});
      }
      std::sort(nb_cands.begin(), nb_cands.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.sim > b.sim || (a.sim == b.sim && a.id < b.id);
                });
      nb_links = SelectNeighbors(nb_cands, m, evals);
    }
  }
  if (level > max_level_) {
    entry_ = id;
    max_level_ = level;
  }
}

size_t HnswIndex::Add(const float* v) {
  size_t evals = 0;
  Id id = AppendRow(v);
  PendingLink pending = FindCandidates(id, &evals);
  LinkNode(id, std::move(pending), &evals);
  AUTODC_OBS_INC("ann.inserts");
  AUTODC_OBS_COUNT("ann.distance_evals", evals);
  return id;
}

void HnswIndex::Build(const std::vector<const float*>& rows) {
  AUTODC_OBS_SPAN(build_span, "ann.build");
  size_t start = size_;
  for (const float* v : rows) AppendRow(v);
  size_t end = size_;

  // Sequential prefix: grow the graph one node at a time until it is
  // connected enough for frozen-graph batch searches to find good
  // neighbourhoods.
  size_t i = start;
  size_t evals = 0;
  for (; i < end && i < config_.sequential_prefix; ++i) {
    Id id = static_cast<Id>(i);
    LinkNode(id, FindCandidates(id, &evals), &evals);
  }

  // Batched phase. Candidate search only reads the pre-batch graph, so
  // it parallelizes freely and results are independent of chunking;
  // linking then runs serially in id order. Batch boundaries are fixed
  // by config, never by thread count.
  while (i < end) {
    size_t batch_end = std::min(i + config_.batch_size, end);
    std::vector<PendingLink> found(batch_end - i);
    ParallelFor(i, batch_end, 1, [&](size_t b, size_t e) {
      size_t local_evals = 0;
      for (size_t j = b; j < e; ++j) {
        found[j - i] = FindCandidates(static_cast<Id>(j), &local_evals);
      }
      AUTODC_OBS_COUNT("ann.distance_evals", local_evals);
    });
    for (size_t j = i; j < batch_end; ++j) {
      LinkNode(static_cast<Id>(j), std::move(found[j - i]), &evals);
    }
    i = batch_end;
  }
  AUTODC_OBS_COUNT("ann.inserts", end - start);
  AUTODC_OBS_COUNT("ann.distance_evals", evals);
  PublishStats();
}

std::vector<ScoredId> HnswIndex::Search(const float* query, size_t k,
                                        size_t ef) const {
  std::vector<ScoredId> out;
  if (size_ == 0 || k == 0) return out;
#ifndef AUTODC_DISABLE_OBS
  auto t0 = std::chrono::steady_clock::now();
#endif
  size_t evals = 0;
  double norm_sq = nn::kernels::SumSqF32(query, dim_);
  QueryView q;
  q.inv = norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 0.0;
  switch (config_.quant) {
    case nn::kernels::Quant::kInt8:
    case nn::kernels::Quant::kInt8Sym: {
      // Quantize the query once; every graph hop then runs the exact
      // integer dot against stored rows.
      t_query_q8.resize(dim_);
      q.q8_params = nn::kernels::ComputeInt8Params(
          query, dim_, config_.quant == nn::kernels::Quant::kInt8Sym);
      nn::kernels::QuantizeI8F32(query, dim_, q.q8_params,
                                 t_query_q8.data());
      q.q8 = t_query_q8.data();
      q.q8_sum = nn::kernels::SumI8I32(t_query_q8.data(), dim_);
      break;
    }
    case nn::kernels::Quant::kBf16:
      t_query_bf16.resize(dim_);
      nn::kernels::F32ToBf16(query, dim_, t_query_bf16.data());
      q.bf16 = t_query_bf16.data();
      break;
    case nn::kernels::Quant::kFp32:
    default:
      q.f32 = query;
      break;
  }
  size_t beam = std::max(ef != 0 ? ef : config_.ef_search, k);
  Id ep = entry_;
  if (max_level_ > 0) {
    ep = GreedyDescend(q, entry_, max_level_, 0, &evals);
  }
  std::vector<Candidate> found = SearchLayer(q, ep, 0, beam, &evals);
  size_t take = std::min(k, found.size());
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(ScoredId{found[i].id, found[i].sim});
  }
  AUTODC_OBS_INC("ann.searches");
  AUTODC_OBS_COUNT("ann.distance_evals", evals);
#ifndef AUTODC_DISABLE_OBS
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  AUTODC_OBS_HIST("ann.search_ms", elapsed_ms);
#endif
  return out;
}

size_t HnswIndex::num_edges() const {
  size_t edges = 0;
  for (const auto& node : links_) {
    for (const auto& level : node) edges += level.size();
  }
  return edges;
}

size_t HnswIndex::resident_bytes() const {
  size_t bytes = data_.capacity() * sizeof(float) +
                 q8_data_.capacity() * sizeof(std::int8_t) +
                 q8_params_.capacity() * sizeof(nn::kernels::Int8Params) +
                 q8_sums_.capacity() * sizeof(std::int32_t) +
                 bf16_data_.capacity() * sizeof(std::uint16_t) +
                 inv_norms_.capacity() * sizeof(double) +
                 levels_.capacity() * sizeof(int);
  bytes += links_.capacity() * sizeof(std::vector<std::vector<Id>>);
  for (const auto& node : links_) {
    bytes += node.capacity() * sizeof(std::vector<Id>);
    for (const auto& level : node) bytes += level.capacity() * sizeof(Id);
  }
  return bytes;
}

void HnswIndex::PublishStats() const {
  AUTODC_OBS_GAUGE_SET("ann.nodes", static_cast<double>(size_));
  AUTODC_OBS_GAUGE_SET("ann.edges", static_cast<double>(num_edges()));
  AUTODC_OBS_GAUGE_SET("ann.max_level", static_cast<double>(max_level_));
  AUTODC_OBS_GAUGE_SET("ann.bytes", static_cast<double>(resident_bytes()));
}

}  // namespace autodc::ann
