// curate_dedup and curate_lake: AutoCurator::Curate called back to back
// on the pinned global pool, over a lake read from files.
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "e2ebench/src/bench.h"
#include "e2ebench/src/lake.h"
#include "e2ebench/src/layers.h"
#include "e2ebench/src/stats.h"
#include "src/cleaning/imputation.h"
#include "src/cleaning/repair.h"
#include "src/common/rng.h"
#include "src/core/autocurator.h"
#include "src/data/dependencies.h"
#include "src/discovery/schema_mapping.h"
#include "src/discovery/search.h"
#include "src/discovery/semantic_matcher.h"
#include "src/embedding/word2vec.h"
#include "src/er/blocking.h"
#include "src/er/deeper.h"
#include "src/text/similarity.h"

namespace e2ebench {

namespace {

using autodc::Result;
using autodc::Status;
using autodc::data::Table;
namespace core = autodc::core;
namespace obs = autodc::obs;

// Set-up rounds. One round loads the lake once on each core in turn and
// yields the mean load time; setup_s is the median over rounds. One core
// can run 1.5x slower than another for seconds at a time, so a median
// over single loads falls on whichever side of that split holds the
// middle sample; a round's mean weights every core the same.
constexpr int kSetupRounds = 15;
// A run makes at least this many calls whatever the time budget, so the
// tail always has 10 calls beyond it and a slower program is measured
// rather than failed.
constexpr size_t kMinCalls = 11;
// Traced run: obs-off/obs-on call pairs for the overhead estimate, and
// replays of the stages from outside.
constexpr int kTracedPairs = 3;
constexpr int kReplays = 2;

bool SameTable(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.schema().column(c).name != b.schema().column(c).name) return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (a.IsNull(r, c) != b.IsNull(r, c) ||
          a.at(r, c).type() != b.at(r, c).type() ||
          a.CellText(r, c) != b.CellText(r, c)) {
        return false;
      }
    }
  }
  return true;
}

// ---- Replay of Curate's stages from outside -------------------------
//
// Mirrors src/core/autocurator.cc call for call, with one span around
// each public call, so the traced run can attribute the stage time the
// library reports as one `pipeline.stage.<name>` span. Its output must
// equal Curate's; the traced run reports whether the row counts agree.

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

std::string RowText(autodc::data::RowView row) {
  std::string out;
  for (size_t c = 0; c < row.size(); ++c) {
    if (row.is_null(c)) continue;
    out += row.Text(c);
    out += " ";
  }
  return out;
}

struct Replay {
  Table out;
  size_t merged = 0;
  size_t candidates = 0;
  size_t matches = 0;
  size_t jaccard_calls = 0;
  size_t repaired = 0;
  size_t imputed = 0;
  double precision = 0.0;
  double recall = 0.0;
};

Result<Replay> ReplayCurate(const std::vector<Table>& lake,
                            const core::AutoCuratorConfig& cfg,
                            const CurateInputs& in) {
  Replay rep;
  std::vector<const Table*> ptrs;
  for (const Table& t : lake) ptrs.push_back(&t);
  auto entity_of = [&in](const Table& t) {
    auto it = in.entity.find(t.name());
    return it != in.entity.end() ? it->second
                                 : std::vector<int64_t>(t.num_rows(), -1);
  };

  // Representation.
  std::shared_ptr<autodc::embedding::EmbeddingStore> words;
  {
    obs::Span span("embedding.sgns");
    autodc::embedding::Word2VecConfig w;
    w.sgns.dim = 32;
    w.sgns.epochs = 6;
    w.sgns.seed = cfg.seed;
    words = std::make_shared<autodc::embedding::EmbeddingStore>(
        autodc::embedding::TrainWordEmbeddingsFromTables(ptrs, w));
  }

  // Discovery.
  autodc::discovery::TableSearchEngine engine(words.get());
  {
    obs::Span span("discovery.index");
    engine.Index(ptrs);
  }
  std::vector<autodc::discovery::SearchResult> hits;
  {
    obs::Span span("discovery.search");
    hits = engine.Search(cfg.task_query);
  }
  auto find = [&lake](const std::string& name) -> const Table* {
    const Table* found = nullptr;
    for (const Table& t : lake) {
      if (t.name() == name) found = &t;
    }
    return found;
  };
  if (hits.empty() || find(hits[0].table) == nullptr) {
    return Status::NotFound("replay: no table matches the query");
  }
  Table working = *find(hits[0].table);
  std::vector<int64_t> entity = entity_of(working);
  autodc::discovery::SemanticColumnMatcher matcher(words.get());
  for (size_t h = 1; h < hits.size() && rep.merged + 1 < cfg.max_tables;
       ++h) {
    const Table* other = find(hits[h].table);
    if (other == nullptr) continue;
    autodc::discovery::SchemaMapping mapping;
    {
      obs::Span span("discovery.map_schema");
      mapping = autodc::discovery::MapSchema(matcher, working, *other,
                                             cfg.schema_match_threshold);
    }
    if (mapping.num_mapped() * 2 < working.num_columns()) continue;
    {
      obs::Span span("discovery.union");
      AUTODC_RETURN_NOT_OK(
          autodc::discovery::UnionInto(&working, *other, mapping));
    }
    std::vector<int64_t> more = entity_of(*other);
    entity.insert(entity.end(), more.begin(), more.end());
    ++rep.merged;
  }

  // Dedup.
  autodc::er::DeepErConfig dcfg;
  dcfg.epochs = 25;
  dcfg.learning_rate = 1e-2f;
  dcfg.seed = cfg.seed;
  autodc::er::DeepEr model(words.get(), dcfg);
  std::vector<std::vector<float>> vecs;
  {
    obs::Span span("er.embed_rows");
    model.FitWeights({&working});
    vecs.reserve(working.num_rows());
    for (size_t r = 0; r < working.num_rows(); ++r) {
      vecs.push_back(model.EmbedTupleVector(working.row(r)));
    }
  }
  std::vector<autodc::er::RowPair> candidates;
  {
    obs::Span span("er.block");
    autodc::er::LshBlocker lsh(words->dim(), 4, 12, cfg.seed);
    for (const autodc::er::RowPair& p : lsh.Candidates(vecs, vecs)) {
      if (p.first < p.second) candidates.push_back(p);
    }
  }
  rep.candidates = candidates.size();
  std::vector<autodc::er::PairLabel> train;
  {
    obs::Span span("er.weak_label");
    autodc::Rng rng(cfg.seed);
    for (const autodc::er::RowPair& p : candidates) {
      ++rep.jaccard_calls;
      double sim = autodc::text::TokenJaccard(RowText(working.row(p.first)),
                                              RowText(working.row(p.second)));
      if (sim > 0.75) train.push_back({p.first, p.second, 1});
    }
    size_t want_neg = train.size() * cfg.negatives_per_positive;
    size_t attempts = 0;
    while (train.size() < want_neg + want_neg / cfg.negatives_per_positive &&
           attempts < want_neg * 30 && working.num_rows() > 1) {
      ++attempts;
      size_t a = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(working.num_rows()) - 1));
      size_t b = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(working.num_rows()) - 1));
      if (a == b) continue;
      ++rep.jaccard_calls;
      double sim = autodc::text::TokenJaccard(RowText(working.row(a)),
                                              RowText(working.row(b)));
      if (sim < 0.3) train.push_back({a, b, 0});
    }
  }
  if (!train.empty()) {
    {
      obs::Span span("er.train");
      model.Train(working, working, train);
    }
    std::vector<autodc::er::RowPair> matches;
    {
      obs::Span span("er.match");
      matches = model.Match(working, working, candidates,
                            cfg.dedup_threshold);
    }
    rep.matches = matches.size();
    // Pair-level quality against the planted entities.
    std::unordered_map<int64_t, size_t> group;
    for (int64_t e : entity) {
      if (e >= 0) ++group[e];
    }
    size_t planted = 0;
    for (const auto& [e, k] : group) planted += k * (k - 1) / 2;
    size_t hit = 0;
    for (const auto& [a, b] : matches) {
      if (entity[a] >= 0 && entity[a] == entity[b]) ++hit;
    }
    rep.precision = matches.empty() ? 0.0 : double(hit) / matches.size();
    rep.recall = planted == 0 ? 0.0 : double(hit) / planted;
    {
      obs::Span span("er.fuse");
      UnionFind uf(working.num_rows());
      for (const autodc::er::RowPair& m : matches) uf.Union(m.first, m.second);
      std::unordered_map<size_t, std::vector<size_t>> clusters;
      for (size_t r = 0; r < working.num_rows(); ++r) {
        clusters[uf.Find(r)].push_back(r);
      }
      std::vector<std::vector<size_t>> cluster_list;
      cluster_list.reserve(clusters.size());
      for (auto& [root, rows] : clusters) cluster_list.push_back(std::move(rows));
      working = autodc::cleaning::FuseClusters(working, cluster_list);
    }
  }

  // Repair.
  {
    obs::Span span("cleaning.repair");
    std::vector<autodc::data::FunctionalDependency> fds;
    for (size_t lhs = 0; lhs < working.num_columns(); ++lhs) {
      for (size_t rhs = 0; rhs < working.num_columns(); ++rhs) {
        if (lhs == rhs) continue;
        autodc::data::FunctionalDependency fd{{lhs}, rhs};
        double conf = autodc::data::Confidence(working, fd);
        if (conf >= cfg.fd_min_confidence && conf < 1.0) fds.push_back(fd);
      }
    }
    rep.repaired = autodc::cleaning::RepairFdViolations(&working, fds).size();
  }

  // Impute.
  {
    obs::Span span("cleaning.dae");
    autodc::cleaning::DaeImputerConfig icfg;
    icfg.seed = cfg.seed;
    autodc::cleaning::DaeImputer imputer(icfg);
    rep.imputed = imputer.FitAndFillAll(&working);
  }
  {
    obs::Span span("cleaning.mean_mode");
    autodc::cleaning::MeanModeImputer fallback;
    rep.imputed += fallback.FitAndFillAll(&working);
  }
  rep.out = std::move(working);
  return rep;
}

double SpanTotal(const std::map<std::string, SpanStat>& roll,
                 const std::string& name) {
  auto it = roll.find(name);
  return it == roll.end() ? 0.0 : it->second.total_ms;
}

// Checks one Curate result against the first call's and the planted
// ground truth. Returns the entity-count error.
double CheckCurated(const Result<core::CurationResult>& r,
                    const Table* reference, const CurateInputs& in,
                    Report* report) {
  if (!r.ok()) {
    report->Check(false, "Curate failed: " + r.status().ToString());
    return 1.0;
  }
  const Table& out = r.ValueOrDie().curated;
  if (reference != nullptr) {
    report->Check(SameTable(out, *reference),
                  "Curate output differs between calls of one run");
  }
  report->Check(out.NullFraction() == 0.0,
                "curated table still has nulls");
  double planted = static_cast<double>(in.planted_entities);
  double err = std::fabs(static_cast<double>(out.num_rows()) - planted) /
               planted;
  report->Check(err <= in.max_entity_count_err,
                "entity-count error " + std::to_string(err) + " above " +
                    std::to_string(in.max_entity_count_err));
  return err;
}

int TraceCurate(const Options& opt, const CurateInputs& in,
                const std::vector<Table>& lake,
                const core::AutoCuratorConfig& cfg, const Table& reference,
                Report* report) {
  core::AutoCurator curator(cfg);
  obs::SetThreadSpanBufferCap(1 << 20);
  obs::ClearSpans();
  obs::MetricsRegistry::Global().ResetValues();

  // Alternate untraced and traced calls: the difference of their medians
  // is the tracing overhead. Counters only move while obs is on.
  std::vector<double> off_ms, on_ms;
  std::vector<obs::SpanRecord> spans;
  size_t same = 0;
  for (int i = 0; i < kTracedPairs; ++i) {
    obs::SetEnabled(false);
    int64_t t0 = NowNs();
    auto plain = curator.Curate(lake);
    off_ms.push_back(MsSince(t0));
    size_t problems = report->problems().size();
    CheckCurated(plain, &reference, in, report);

    obs::SetEnabled(true);
    {
      obs::Span span("bench.curate");
      t0 = NowNs();
      auto traced = curator.Curate(lake);
      on_ms.push_back(MsSince(t0));
      CheckCurated(traced, &reference, in, report);
    }
    if (report->problems().size() == problems) same += 2;
    std::vector<obs::SpanRecord> drained = obs::TakeSpans();
    spans.insert(spans.end(), drained.begin(), drained.end());
    report->attempted += 2;
  }
  obs::MetricsSnapshot calls_snap = obs::MetricsRegistry::Global().Snapshot();
  std::map<std::string, SpanStat> roll = RollupSpans(spans);

  // Replays of the stages from outside, for the per-call breakdown.
  obs::MetricsRegistry::Global().ResetValues();
  Result<Replay> replayed = Status::Internal("no replay");
  std::vector<obs::SpanRecord> replay_spans;
  for (int i = 0; i < kReplays; ++i) {
    replayed = ReplayCurate(lake, cfg, in);
    std::vector<obs::SpanRecord> drained = obs::TakeSpans();
    replay_spans.insert(replay_spans.end(), drained.begin(), drained.end());
    ++report->attempted;
    if (!replayed.ok()) break;
  }
  obs::MetricsSnapshot replay_snap = obs::MetricsRegistry::Global().Snapshot();
  obs::SetEnabled(false);
  if (!replayed.ok()) {
    report->Check(false, "replay failed: " + replayed.status().ToString());
    return 0;
  }
  const Replay& rep = replayed.ValueOrDie();
  // Per-replay means of each span's total.
  std::map<std::string, SpanStat> rroll = RollupSpans(replay_spans);
  for (auto& [name, st] : rroll) st.total_ms /= kReplays;
  spans.insert(spans.end(), replay_spans.begin(), replay_spans.end());

  double calls = static_cast<double>(kTracedPairs);
  double stages = 0.0;
  for (const char* s :
       {"representation", "discovery", "dedup", "repair", "impute"}) {
    double ms = SpanTotal(roll, std::string("pipeline.stage.") + s) / calls;
    report->Set(std::string("core.stage.") + s + "_ms", ms);
    stages += ms;
  }
  double wall = SpanTotal(roll, "bench.curate") / calls;
  report->Set("core.span_coverage", wall > 0 ? stages / wall : 0.0);
  double planted = static_cast<double>(in.planted_entities);
  report->Set("core.entity_count_err",
              std::fabs(static_cast<double>(reference.num_rows()) - planted) /
                  planted);
  report->Set("core.null_fraction_out", reference.NullFraction());
  report->Set("oracle_agree", static_cast<double>(same) / (2.0 * calls));

  report->Set("embedding.sgns_ms", SpanTotal(rroll, "embedding.sgns"));
  report->Set("embedding.sgns_pairs",
              CounterValue(replay_snap, "sgns.pairs") / kReplays);
  report->Set("discovery.index_ms", SpanTotal(rroll, "discovery.index"));
  report->Set("discovery.search_ms", SpanTotal(rroll, "discovery.search"));
  report->Set("discovery.map_schema_ms",
              SpanTotal(rroll, "discovery.map_schema"));
  report->Set("discovery.tables_merged", static_cast<double>(rep.merged));

  double er_ms = 0.0;
  for (const char* s :
       {"embed_rows", "block", "weak_label", "train", "match", "fuse"}) {
    double ms = SpanTotal(rroll, std::string("er.") + s);
    report->Set(std::string("er.") + s + "_ms", ms);
    er_ms += ms;
  }
  double cands = static_cast<double>(rep.candidates);
  report->Set("er.candidates", cands);
  report->Set("er.match_us_per_candidate",
              cands > 0 ? SpanTotal(rroll, "er.match") * 1e3 / cands : 0.0);
  report->Set("er.match_yield",
              cands > 0 ? static_cast<double>(rep.matches) / cands : 0.0);
  report->Set("er.match_precision", rep.precision);
  report->Set("er.match_recall", rep.recall);
  double dedup_ms = report->metrics().at("core.stage.dedup_ms");
  report->Set("er.replay_coverage", dedup_ms > 0 ? er_ms / dedup_ms : 0.0);
  bool rows_match = rep.out.num_rows() == reference.num_rows();
  report->Set("er.replay_rows_match", rows_match ? 1.0 : 0.0);
  std::printf("replay: %zu rows (Curate %zu), identical table: %s\n",
              rep.out.num_rows(), reference.num_rows(),
              SameTable(rep.out, reference) ? "yes" : "no");
  report->Set("text.jaccard_calls", static_cast<double>(rep.jaccard_calls));

  report->Set("cleaning.repair_ms", SpanTotal(rroll, "cleaning.repair"));
  report->Set("cleaning.repaired_cells", static_cast<double>(rep.repaired));
  report->Set("cleaning.dae_ms", SpanTotal(rroll, "cleaning.dae") +
                                     SpanTotal(rroll, "cleaning.mean_mode"));
  report->Set("cleaning.imputed_cells", static_cast<double>(rep.imputed));

  SetRuntimeLayers(calls_snap, calls, report);
  double off = Median(off_ms);
  report->Set("obs.trace_overhead_pct",
              off > 0 ? (Median(on_ms) - off) / off * 100.0 : 0.0);
  std::printf("traced calls: untraced median %.1f ms, traced median %.1f ms\n",
              off, Median(on_ms));
  ReportSpans(opt, spans, report);
  return 0;
}

}  // namespace

int RunCurate(const Options& opt, Report* report) {
  bool dedup = opt.workload == "curate_dedup";
  int64_t g0 = NowNs();
  CurateInputs in = dedup ? WriteDedupLake(opt.seed, opt.work_dir)
                          : WriteWideLake(opt.seed, opt.work_dir);
  uint64_t bytes = 0;
  for (const LakeFile& f : in.files) bytes += FileBytes(f.path);
  std::printf("generation: %.1f ms, %zu files, %llu bytes, %zu planted "
              "entities (not part of any metric)\n",
              MsSince(g0), in.files.size(),
              static_cast<unsigned long long>(bytes), in.planted_entities);

  // Set-up: ingest the lake from its files, once per core per round.
  size_t cores = OnCore::Cores();
  std::vector<double> ingest_ms;
  std::vector<Table> lake;
  for (int round = 0; round < kSetupRounds; ++round) {
    double round_ms = 0.0;
    for (size_t k = 0; k < cores; ++k) {
      OnCore core(k);
      int64_t t0 = NowNs();
      Result<std::vector<Table>> loaded = LoadLake(in);
      round_ms += MsSince(t0);
      if (!loaded.ok()) {
        report->Check(false,
                      "lake ingest failed: " + loaded.status().ToString());
        return 0;
      }
      lake = std::move(loaded).ValueOrDie();
    }
    ingest_ms.push_back(round_ms / static_cast<double>(cores));
  }
  size_t lake_rows = 0;
  for (const Table& t : lake) lake_rows += t.num_rows();
  std::printf("lake: %zu tables, %zu rows; ingest %.3f ms (median over %d "
              "rounds of one load per core, %zu cores)\n",
              lake.size(), lake_rows, Median(ingest_ms), kSetupRounds, cores);

  core::AutoCuratorConfig cfg;
  cfg.task_query = in.query;
  cfg.max_tables = in.max_tables;
  cfg.seed = 4;
  core::AutoCurator curator(cfg);

  // Untimed first call: pool threads start and buffers fill. Its output
  // is the reference every later call must reproduce exactly.
  auto first = curator.Curate(lake);
  ++report->attempted;
  double err = CheckCurated(first, nullptr, in, report);
  if (!first.ok()) {
    ++report->failed;
    return 0;
  }
  const Table reference = first.ValueOrDie().curated;
  for (const std::string& line : first.ValueOrDie().context.report) {
    std::printf("  stage log: %s\n", line.c_str());
  }
  std::printf("curated: %zu rows (planted %zu), entity-count error %.4f\n",
              reference.num_rows(), in.planted_entities, err);

  if (opt.trace) {
    ZeroPerLayer(report);
    report->Set("data.ingest_ms", Median(ingest_ms));
    report->Set("data.input_bytes", static_cast<double>(bytes));
    return TraceCurate(opt, in, lake, cfg, reference, report);
  }

  std::vector<double> call_ms;
  size_t slo_ok = 0;
  int64_t loop0 = NowNs();
  while (MsSince(loop0) < opt.seconds * 1e3 || call_ms.size() < kMinCalls) {
    OnCore core(call_ms.size());
    int64_t t0 = NowNs();
    auto r = curator.Curate(lake);
    double ms = MsSince(t0);
    call_ms.push_back(ms);
    ++report->attempted;
    size_t problems = report->problems().size();
    CheckCurated(r, &reference, in, report);
    if (!r.ok()) ++report->failed;
    if (report->problems().size() == problems && ms <= opt.Slo()) ++slo_ok;
  }
  double loop_s = MsSince(loop0) / 1e3;

  Tail tail = TailWithSupport(call_ms);
  double n = static_cast<double>(call_ms.size());
  report->Set("setup_s", Median(ingest_ms) / 1e3);
  report->Set("latency_ms", Median(call_ms));
  report->Set("tail_ms", tail.value);
  report->Set("capacity_rps", n / loop_s);
  report->Set("slo_ok_ratio", static_cast<double>(slo_ok) / n);
  report->Set("peak_rss_mb", PeakRssMb());
  std::printf("curate: %zu calls in %.2f s, median %.1f ms, tail p%.1f = %.1f ms "
              "(%zu samples, %zu beyond), max %.1f ms, %zu within %.0f ms\n",
              call_ms.size(), loop_s, Median(call_ms), tail.percentile,
              tail.value, tail.samples, tail.beyond,
              PercentileNearestRank(call_ms, 100), slo_ok, opt.Slo());
  return 0;
}

}  // namespace e2ebench
