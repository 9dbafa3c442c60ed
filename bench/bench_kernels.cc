// Experiment K1: the SIMD kernel layer. Scalar-vs-AVX2 A/B for the
// level-1 kernels (dot, axpy, cosine) across vector lengths, the
// blocked matmul, a cosine top-k nearest-neighbour scan over an
// EmbeddingStore, and the TensorPool workspace on/off allocation bench.
// Shape: the AVX2 path is multiples faster on every dense kernel at
// n >= 4096, and workspace mode removes the per-step heap churn.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/rng.h"
#include "src/embedding/embedding_store.h"
#include "src/nn/kernels.h"
#include "src/nn/tensor.h"
#include "src/nn/tensor_pool.h"

using namespace autodc;         // NOLINT
using namespace autodc::bench;  // NOLINT

namespace {

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

// Keeps reduction results alive so -O2 cannot fold the bench loop away.
volatile double g_sink = 0.0;

// Seconds per call: minimum over repeats of (iters calls) / iters.
template <typename Fn>
double PerCallSeconds(Bench& b, Fn&& fn, size_t iters) {
  double s = TimeSeconds(
      [&] {
        for (size_t i = 0; i < iters; ++i) fn();
      },
      b.repeats());
  return s / static_cast<double>(iters);
}

// Runs `fn` under both kernel tables and emits one result row.
template <typename Fn>
void AbBench(Bench& b, const std::string& kernel, size_t n, size_t iters,
             double flops, Fn&& fn) {
  nn::kernels::SetForceScalar(true);
  double scalar_s = PerCallSeconds(b, fn, iters);
  nn::kernels::SetForceScalar(false);
  double simd_s = PerCallSeconds(b, fn, iters);
  double speedup = simd_s > 0.0 ? scalar_s / simd_s : 0.0;
  PrintRow({kernel + " n=" + FmtInt(n), Fmt(scalar_s * 1e9, 1),
            Fmt(simd_s * 1e9, 1), Fmt(speedup, 2) + "x",
            Fmt(flops / simd_s * 1e-9, 2)});
  b.Report(kernel + "_n" + FmtInt(n), {{"scalar_ns", scalar_s * 1e9},
                                       {"simd_ns", simd_s * 1e9},
                                       {"speedup", speedup},
                                       {"simd_gflops", flops / simd_s * 1e-9}});
}

}  // namespace

int main(int argc, char** argv) {
  BenchSpec spec;
  spec.name = "kernels";
  spec.experiment = "Experiment K1 — SIMD kernel layer (scalar vs SIMD A/B)";
  spec.claim =
      "Same kernel, two tables: portable scalar vs AVX2+FMA. Shape:\n"
      "multiples of speedup on every dense kernel; the pooled workspace\n"
      "removes steady-state allocation from the training loop.";
  spec.default_seed = 7;
  return BenchMain(argc, argv, spec, [](Bench& b) {
    Rng rng(b.seed());
    if (!nn::kernels::SimdActive()) {
      std::printf("note: SIMD table inactive (not compiled in, CPU lacks "
                  "AVX2+FMA, or AUTODC_FORCE_SCALAR is set); A/B compares "
                  "scalar with itself.\n");
    }

    PrintRow({"kernel", "scalar ns", "simd ns", "speedup", "GFLOP/s"});

    // Level-1 kernels across lengths (4096 is the acceptance point).
    std::vector<size_t> lengths = b.quick()
                                      ? std::vector<size_t>{1024, 4096}
                                      : std::vector<size_t>{256, 1024, 4096,
                                                            16384};
    for (size_t n : lengths) {
      std::vector<float> a = RandomVec(n, &rng);
      std::vector<float> c = RandomVec(n, &rng);
      size_t iters = (size_t{1} << (b.quick() ? 20 : 22)) / n;
      AbBench(b, "dot", n, iters, 2.0 * n, [&] {
        g_sink = nn::kernels::DotF32(a.data(), c.data(), n);
      });
      AbBench(b, "cosine", n, iters, 6.0 * n, [&] {
        g_sink = nn::kernels::CosineF32(a.data(), c.data(), n);
      });
      std::vector<float> y = RandomVec(n, &rng);
      AbBench(b, "axpy", n, iters, 2.0 * n, [&] {
        nn::kernels::AxpyF32(0.001f, a.data(), y.data(), n);
      });
    }

    // Low-precision kernels (DESIGN.md §11): the exact int8 integer dot
    // and fused quantized cosine vs their fp32 counterparts above, the
    // quantizer itself (the per-insert cost of a quantized index), and
    // the bf16 dot. Same A/B shape — both dispatch tables, same data.
    for (size_t n : lengths) {
      std::vector<float> a = RandomVec(n, &rng);
      std::vector<float> c = RandomVec(n, &rng);
      size_t iters = (size_t{1} << (b.quick() ? 20 : 22)) / n;
      nn::kernels::Int8Params pa =
          nn::kernels::ComputeInt8Params(a.data(), n, false);
      nn::kernels::Int8Params pc =
          nn::kernels::ComputeInt8Params(c.data(), n, false);
      std::vector<std::int8_t> qa(n), qc(n);
      nn::kernels::QuantizeI8F32(a.data(), n, pa, qa.data());
      nn::kernels::QuantizeI8F32(c.data(), n, pc, qc.data());
      std::vector<std::uint16_t> ha(n), hc(n);
      nn::kernels::F32ToBf16(a.data(), n, ha.data());
      nn::kernels::F32ToBf16(c.data(), n, hc.data());
      AbBench(b, "dot-i8", n, iters, 2.0 * n, [&] {
        g_sink = nn::kernels::DotI8I32(qa.data(), qc.data(), n);
      });
      AbBench(b, "cosine-i8", n, iters, 6.0 * n, [&] {
        g_sink = nn::kernels::CosineI8(qa.data(), pa, qc.data(), pc, n);
      });
      AbBench(b, "quantize-i8", n, iters, 2.0 * n, [&] {
        nn::kernels::QuantizeI8F32(a.data(), n, pa, qa.data());
        g_sink = qa[0];
      });
      AbBench(b, "dot-bf16", n, iters, 2.0 * n, [&] {
        g_sink = nn::kernels::DotBf16D(ha.data(), hc.data(), n);
      });
    }

    // Blocked matmul through the Tensor API (ParallelFor + panel
    // kernels).
    std::vector<size_t> mat_sizes =
        b.quick() ? std::vector<size_t>{64, 128}
                  : std::vector<size_t>{64, 128, 256};
    for (size_t n : mat_sizes) {
      nn::Tensor ta = nn::Tensor::RandomUniform({n, n}, 0.5f, &rng);
      nn::Tensor tb = nn::Tensor::RandomUniform({n, n}, 0.5f, &rng);
      size_t iters = n <= 128 ? 40 : 10;
      AbBench(b, "matmul", n, iters, 2.0 * n * n * n, [&] {
        nn::Tensor c = nn::MatMul(ta, tb);
        g_sink = c[0];
      });
    }

    // Cosine top-k over an embedding store (the discovery/ER hot scan).
    {
      const size_t kWords = b.Size(2000, 500), kDim = 256, kTopK = 10;
      embedding::EmbeddingStore store(kDim);
      for (size_t i = 0; i < kWords; ++i) {
        store.Add("w" + std::to_string(i), RandomVec(kDim, &rng));
      }
      std::vector<float> query = RandomVec(kDim, &rng);
      AbBench(b, "cosine-topk", kWords * kDim, 20, 2.0 * kWords * kDim, [&] {
        auto nn_hits = store.NearestToVector(query, kTopK);
        g_sink = nn_hits.empty() ? 0.0 : nn_hits.front().similarity;
      });
    }

    // Workspace on/off: the autograd-style alloc pattern (fresh
    // activation tensors every step). Same compute; only the buffer
    // source differs.
    {
      const size_t kBatch = 64, kHidden = 128, kSteps = b.Size(50, 20);
      nn::Tensor x = nn::Tensor::RandomUniform({kBatch, kHidden}, 0.5f, &rng);
      nn::Tensor w = nn::Tensor::RandomUniform({kHidden, kHidden}, 0.5f,
                                               &rng);
      auto step = [&] {
        nn::Tensor h = nn::MatMul(x, w);  // fresh {64,128} per step
        nn::Tensor g = nn::MatMulTransB(h, w);
        nn::Axpy(g, 0.0001f, &h);
        g_sink = h[0];
      };
      auto run = [&](bool pooled) {
        return TimeSeconds(
            [&] {
              for (size_t s = 0; s < kSteps; ++s) {
                if (pooled) {
                  nn::WorkspaceScope ws;
                  step();
                } else {
                  step();
                }
              }
            },
            b.repeats());
      };
      double heap_s = run(false);
      nn::TensorPool::Global().ResetStats();
      double pool_s = run(true);
      nn::TensorPool::Stats st = nn::TensorPool::Global().GetStats();
      double hit_rate =
          st.hits + st.misses == 0
              ? 0.0
              : static_cast<double>(st.hits) /
                    static_cast<double>(st.hits + st.misses);
      std::printf("\nworkspace A/B (%zu steps of matmul/matmul^T/axpy):\n",
                  kSteps);
      PrintRow({"allocator", "seconds", "", "", ""});
      PrintRow({"heap", Fmt(heap_s, 5), "", "", ""});
      PrintRow({"pooled", Fmt(pool_s, 5), "", "", ""});
      std::printf("pool stats: %zu hits, %zu misses, %zu releases "
                  "(hit rate %.1f%%)\n",
                  st.hits, st.misses, st.releases, 100.0 * hit_rate);
      b.Report("workspace", {{"heap_s", heap_s},
                             {"pooled_s", pool_s},
                             {"pool_hit_rate", hit_rate}});
    }

    return 0;
  });
}
