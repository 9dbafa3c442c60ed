// Experiment F5b (Figure 5 / Sec. 5.2, efficiency): LSH blocking over
// distributed tuple representations vs classical single-attribute
// blocking. Shape: LSH sees all attributes, so it reaches recall levels
// attribute blocking cannot, and its recall/size frontier is tunable via
// (bits, tables).
#include <cstdio>

#include "bench/harness.h"
#include "src/datagen/er_benchmark.h"
#include "src/embedding/word2vec.h"
#include "src/er/blocking.h"
#include "src/er/deeper.h"
#include "src/er/evaluation.h"

using namespace autodc;         // NOLINT
using namespace autodc::bench;  // NOLINT

int main(int argc, char** argv) {
  BenchSpec spec;
  spec.name = "blocking";
  spec.experiment =
      "Experiment F5b — LSH blocking vs attribute blocking (Sec. 5.2)";
  spec.claim =
      "Pair-completeness (recall of true matches) vs candidate-set size.\n"
      "Expected shape: attribute blocking caps out at low recall because\n"
      "it keys on ONE dirty attribute; LSH over tuple embeddings reaches\n"
      "high recall, trading candidate volume via (bits, tables).";
  spec.default_seed = 17;
  return BenchMain(argc, argv, spec, [](Bench& b) {
    datagen::ErBenchmarkConfig cfg;
    cfg.domain = datagen::ErDomain::kProducts;
    cfg.num_entities = b.Size(300, 120);
    cfg.dirtiness = 0.5;
    cfg.synonym_rate = 0.5;
    cfg.seed = b.seed();
    datagen::ErBenchmark bench = datagen::GenerateErBenchmark(cfg);

    embedding::Word2VecConfig wcfg;
    wcfg.sgns.dim = 24;
    wcfg.sgns.epochs = 6;
    wcfg.sgns.seed = 5;
    embedding::EmbeddingStore words = embedding::TrainWordEmbeddingsFromTables(
        {&bench.left, &bench.right}, wcfg);

    er::DeepErConfig dcfg;
    er::DeepEr model(&words, dcfg);
    model.FitWeights({&bench.left, &bench.right});
    std::vector<std::vector<float>> lv, rv;
    for (size_t i = 0; i < bench.left.num_rows(); ++i) {
      lv.push_back(model.EmbedTupleVector(bench.left.row(i)));
    }
    for (size_t i = 0; i < bench.right.num_rows(); ++i) {
      rv.push_back(model.EmbedTupleVector(bench.right.row(i)));
    }

    PrintRow({"method", "recall", "candidates", "reduction"});
    size_t total = bench.left.num_rows() * bench.right.num_rows();
    std::printf("(cross product = %zu pairs, %zu true matches)\n", total,
                bench.matches.size());
    double best_attr_recall = 0.0;
    for (size_t col = 0; col < bench.left.num_columns(); ++col) {
      auto cands = er::AttributeBlocking(bench.left, bench.right, col);
      double recall = er::PairCompleteness(cands, bench.matches);
      best_attr_recall = std::max(best_attr_recall, recall);
      PrintRow({"attr[" + bench.left.schema().column(col).name + "]",
                Fmt(recall), FmtInt(cands.size()),
                Fmt(er::ReductionRatio(cands.size(), lv.size(), rv.size()))});
    }
    b.Report("attribute", {{"best_recall", best_attr_recall}});
    for (size_t bits : {4, 6, 8}) {
      for (size_t tables : {4, 8, 16}) {
        er::LshBlocker lsh(words.dim(), bits, tables, 21);
        auto cands = lsh.Candidates(lv, rv);
        double recall = er::PairCompleteness(cands, bench.matches);
        double reduction =
            er::ReductionRatio(cands.size(), lv.size(), rv.size());
        PrintRow({"lsh b=" + FmtInt(bits) + " t=" + FmtInt(tables),
                  Fmt(recall), FmtInt(cands.size()), Fmt(reduction)});
        // The gated corner points only: full grid rows stay table-only.
        if ((bits == 6 && tables == 16) || (bits == 8 && tables == 4)) {
          b.Report("lsh_b" + FmtInt(bits) + "_t" + FmtInt(tables),
                   {{"recall", recall},
                    {"candidates", static_cast<double>(cands.size())},
                    {"reduction", reduction}});
        }
      }
    }
    for (size_t k : {5, 10}) {
      er::AnnBlocker knn(k);
      auto cands = knn.Candidates(lv, rv);
      double recall = er::PairCompleteness(cands, bench.matches);
      double reduction = er::ReductionRatio(cands.size(), lv.size(), rv.size());
      PrintRow({"knn k=" + FmtInt(k), Fmt(recall), FmtInt(cands.size()),
                Fmt(reduction)});
      b.Report("knn_k" + FmtInt(k),
               {{"recall", recall},
                {"candidates", static_cast<double>(cands.size())},
                {"reduction", reduction}});
    }
    // Quantized kNN arm (DESIGN.md §11): same blocker over an int8
    // graph. Candidates are a recall set — no rescoring — so this gates
    // that quantized retrieval keeps pair-completeness.
    {
      ann::HnswConfig qcfg;
      qcfg.quant = nn::kernels::Quant::kInt8;
      er::AnnBlocker knn(10, qcfg);
      auto cands = knn.Candidates(lv, rv);
      double recall = er::PairCompleteness(cands, bench.matches);
      double reduction = er::ReductionRatio(cands.size(), lv.size(), rv.size());
      PrintRow({"knn k=10 int8", Fmt(recall), FmtInt(cands.size()),
                Fmt(reduction)});
      b.Report("knn_k10_int8",
               {{"recall", recall},
                {"candidates", static_cast<double>(cands.size())},
                {"reduction", reduction}});
    }
    return 0;
  });
}
