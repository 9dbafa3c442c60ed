// Tests for the low-precision fast path (DESIGN.md §11): int8/bf16
// kernel agreement across dispatch paths (int8 is bit-exact, bf16 holds
// the normal float tolerance), quantize/dequantize round-trip error
// bounds, degenerate inputs, the quantized Gemm panel, quantized HNSW
// recall, and the quantized EmbeddingStore (rescoring contract, Find
// cache stability, resident-bytes ratio, concurrent reads for the TSan
// leg — `ctest -L quant`).
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/ann/hnsw.h"
#include "src/common/rng.h"
#include "src/embedding/embedding_store.h"
#include "src/nn/kernels.h"

namespace autodc {
namespace {

namespace k = nn::kernels;
using k::Int8Params;
using k::Quant;
using k::SetForceScalar;
using k::SimdActive;

// Tolerance policy from DESIGN.md: relative 1e-5 with an absolute floor
// of 1e-5 (for the float-accumulating bf16 kernels; the int8 kernels
// are exact and use EXPECT_EQ).
void ExpectClose(double a, double b, const char* what, size_t n) {
  double tol = 1e-5 * std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_NEAR(a, b, tol) << what << " n=" << n;
}

std::vector<float> RandomVec(size_t n, Rng* rng, double lo = -2.0,
                             double hi = 2.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Uniform(lo, hi));
  return v;
}

// Sizes covering every AVX2 remainder-lane count for both the 8-wide
// float path and the 32-wide int8 path.
const size_t kSizes[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                         12, 13, 14, 15, 16, 31, 32, 33, 63, 64, 100,
                         127, 128, 200, 256};

// Restores the dispatch default after each test so a failure cannot
// leak forced-scalar mode into the rest of the binary.
class QuantKernelsTest : public ::testing::Test {
 protected:
  void TearDown() override { SetForceScalar(false); }
};

// ---- int8: scalar vs SIMD must agree BIT-FOR-BIT ----------------------
// Integer accumulation is associative, both quantizers share the same
// round-to-nearest-even contract, and the dequant algebra is one shared
// inline — so unlike the float kernels there is no tolerance here.

TEST_F(QuantKernelsTest, Int8KernelsBitIdenticalAcrossPaths) {
  if (!SimdActive()) GTEST_SKIP() << "no SIMD path on this host";
  Rng rng(7);
  for (bool symmetric : {false, true}) {
    for (size_t n : kSizes) {
      std::vector<float> a = RandomVec(n, &rng);
      std::vector<float> b = RandomVec(n, &rng, -0.5, 3.0);  // asymmetric range
      Int8Params pa = k::ComputeInt8Params(a.data(), n, symmetric);
      Int8Params pb = k::ComputeInt8Params(b.data(), n, symmetric);

      SetForceScalar(true);
      std::vector<std::int8_t> qa_s(n), qb_s(n);
      k::QuantizeI8F32(a.data(), n, pa, qa_s.data());
      k::QuantizeI8F32(b.data(), n, pb, qb_s.data());
      std::int32_t dot_s = k::DotI8I32(qa_s.data(), qb_s.data(), n);
      std::int32_t sum_s = k::SumI8I32(qa_s.data(), n);
      double cos_s = k::CosineI8(qa_s.data(), pa, qb_s.data(), pb, n);
      double sq_s = k::SqDistI8(qa_s.data(), pa, qb_s.data(), pb, n);
      std::vector<float> da_s(n);
      k::DequantizeI8F32(qa_s.data(), n, pa, da_s.data());

      SetForceScalar(false);
      std::vector<std::int8_t> qa_v(n), qb_v(n);
      k::QuantizeI8F32(a.data(), n, pa, qa_v.data());
      k::QuantizeI8F32(b.data(), n, pb, qb_v.data());
      EXPECT_EQ(qa_s, qa_v) << "quantize n=" << n << " sym=" << symmetric;
      EXPECT_EQ(qb_s, qb_v) << "quantize n=" << n << " sym=" << symmetric;
      EXPECT_EQ(dot_s, k::DotI8I32(qa_v.data(), qb_v.data(), n)) << n;
      EXPECT_EQ(sum_s, k::SumI8I32(qa_v.data(), n)) << n;
      EXPECT_EQ(cos_s, k::CosineI8(qa_v.data(), pa, qb_v.data(), pb, n)) << n;
      EXPECT_EQ(sq_s, k::SqDistI8(qa_v.data(), pa, qb_v.data(), pb, n)) << n;
      std::vector<float> da_v(n);
      k::DequantizeI8F32(qa_v.data(), n, pa, da_v.data());
      EXPECT_EQ(da_s, da_v) << "dequantize n=" << n;
    }
  }
}

TEST_F(QuantKernelsTest, QuantizedValuesStayWithinPlusMinus127) {
  // The ±127 clamp (never −128) is the invariant that keeps the AVX2
  // maddubs pair-sums below i16 saturation, making integer dots exact.
  Rng rng(11);
  for (size_t n : kSizes) {
    std::vector<float> a = RandomVec(n, &rng, -100.0, 100.0);
    for (bool symmetric : {false, true}) {
      Int8Params p = k::ComputeInt8Params(a.data(), n, symmetric);
      std::vector<std::int8_t> q(n);
      k::QuantizeI8F32(a.data(), n, p, q.data());
      for (std::int8_t v : q) {
        EXPECT_GE(v, -127);
        EXPECT_LE(v, 127);
      }
    }
  }
}

// ---- Round-trip error bound (property test) ---------------------------

TEST_F(QuantKernelsTest, Int8RoundTripErrorBounded) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(1, 300));
    double lo = rng.Uniform(-10.0, 0.0);
    double hi = rng.Uniform(0.0, 10.0);
    std::vector<float> x = RandomVec(n, &rng, lo, hi);
    for (bool symmetric : {false, true}) {
      Int8Params p = k::ComputeInt8Params(x.data(), n, symmetric);
      std::vector<std::int8_t> q(n);
      std::vector<float> y(n);
      k::QuantizeI8F32(x.data(), n, p, q.data());
      k::DequantizeI8F32(q.data(), n, p, y.data());
      // Values inside the represented range round to the nearest grid
      // point: error ≤ scale/2 (+ float slack). The asymmetric grid is
      // anchored so min/max land on it; clamping can cost up to one
      // extra step at the extremes, hence the 1.51 headroom.
      double bound = 1.51 * p.scale + 1e-6;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_LE(std::fabs(static_cast<double>(x[i]) - y[i]), bound)
            << "i=" << i << " n=" << n << " sym=" << symmetric;
      }
    }
  }
}

TEST_F(QuantKernelsTest, Bf16RoundTripRelativeErrorBounded) {
  Rng rng(17);
  std::vector<float> x = RandomVec(512, &rng, -1000.0, 1000.0);
  std::vector<std::uint16_t> h(x.size());
  std::vector<float> y(x.size());
  k::F32ToBf16(x.data(), x.size(), h.data());
  k::Bf16ToF32(h.data(), h.size(), y.data());
  for (size_t i = 0; i < x.size(); ++i) {
    // bf16 keeps 8 mantissa bits: RNE error ≤ 2^-9 relative.
    EXPECT_LE(std::fabs(x[i] - y[i]), std::fabs(x[i]) * 0x1p-8 + 1e-30)
        << i;
  }
}

TEST_F(QuantKernelsTest, Bf16ConversionBitIdenticalAcrossPaths) {
  if (!SimdActive()) GTEST_SKIP() << "no SIMD path on this host";
  Rng rng(19);
  for (size_t n : kSizes) {
    std::vector<float> x = RandomVec(n, &rng, -50.0, 50.0);
    if (n > 2) {
      x[0] = std::numeric_limits<float>::quiet_NaN();
      x[1] = std::numeric_limits<float>::infinity();
      x[2] = -0.0f;
    }
    SetForceScalar(true);
    std::vector<std::uint16_t> h_s(n);
    k::F32ToBf16(x.data(), n, h_s.data());
    SetForceScalar(false);
    std::vector<std::uint16_t> h_v(n);
    k::F32ToBf16(x.data(), n, h_v.data());
    EXPECT_EQ(h_s, h_v) << "f32->bf16 n=" << n;
    std::vector<float> back(n);
    k::Bf16ToF32(h_s.data(), n, back.data());
    if (n > 2) {
      EXPECT_TRUE(std::isnan(back[0]));  // NaN never rounds to inf
      EXPECT_TRUE(std::isinf(back[1]));
    }
  }
}

TEST_F(QuantKernelsTest, Bf16DotCosineSqDistAgreeAcrossPaths) {
  if (!SimdActive()) GTEST_SKIP() << "no SIMD path on this host";
  Rng rng(23);
  for (size_t n : kSizes) {
    std::vector<float> a = RandomVec(n, &rng);
    std::vector<float> b = RandomVec(n, &rng);
    std::vector<std::uint16_t> ha(n), hb(n);
    k::F32ToBf16(a.data(), n, ha.data());
    k::F32ToBf16(b.data(), n, hb.data());
    SetForceScalar(true);
    double dot_s = k::DotBf16D(ha.data(), hb.data(), n);
    double cos_s = k::CosineBf16(ha.data(), hb.data(), n);
    double sq_s = k::SqDistBf16(ha.data(), hb.data(), n);
    SetForceScalar(false);
    ExpectClose(dot_s, k::DotBf16D(ha.data(), hb.data(), n), "bf16 dot", n);
    ExpectClose(cos_s, k::CosineBf16(ha.data(), hb.data(), n), "bf16 cos", n);
    ExpectClose(sq_s, k::SqDistBf16(ha.data(), hb.data(), n), "bf16 sq", n);
  }
}

// ---- Degenerate inputs ------------------------------------------------

TEST_F(QuantKernelsTest, ZeroAndConstantRowsDegradeGracefully) {
  for (bool symmetric : {false, true}) {
    std::vector<float> zero(16, 0.0f);
    Int8Params pz = k::ComputeInt8Params(zero.data(), zero.size(), symmetric);
    EXPECT_GT(pz.scale, 0.0f);  // never a divide-by-zero scale
    std::vector<std::int8_t> qz(zero.size());
    k::QuantizeI8F32(zero.data(), zero.size(), pz, qz.data());
    EXPECT_EQ(k::CosineI8(qz.data(), pz, qz.data(), pz, zero.size()), 0.0);
    EXPECT_EQ(k::SqDistI8(qz.data(), pz, qz.data(), pz, zero.size()), 0.0);

    // A constant row quantizes exactly: min and max sit on the grid.
    std::vector<float> c(16, 3.25f);
    Int8Params pc = k::ComputeInt8Params(c.data(), c.size(), symmetric);
    std::vector<std::int8_t> qc(c.size());
    std::vector<float> back(c.size());
    k::QuantizeI8F32(c.data(), c.size(), pc, qc.data());
    k::DequantizeI8F32(qc.data(), c.size(), pc, back.data());
    for (float v : back) EXPECT_NEAR(v, 3.25f, 3.25f * 1e-5f);
    EXPECT_NEAR(k::CosineI8(qc.data(), pc, qc.data(), pc, c.size()), 1.0,
                1e-9);
  }
  // n == 0 must not touch memory.
  Int8Params p0 = k::ComputeInt8Params(nullptr, 0, false);
  EXPECT_EQ(p0.zero_point, 0);
  EXPECT_EQ(k::DotI8I32(nullptr, nullptr, 0), 0);
  EXPECT_EQ(k::SumI8I32(nullptr, 0), 0);
}

// ---- Quantized Gemm panel ---------------------------------------------

TEST_F(QuantKernelsTest, GemmI8PanelMatchesReferenceAndIsBitIdentical) {
  Rng rng(29);
  const size_t nrows = 7, krows = 5, m = 37;
  std::vector<std::int8_t> a(nrows * m), b(krows * m);
  std::vector<Int8Params> pa(nrows), pb(krows);
  std::vector<std::int32_t> sa(nrows), sb(krows);
  auto fill = [&](std::vector<std::int8_t>* q, std::vector<Int8Params>* p,
                  std::vector<std::int32_t>* s, size_t rows) {
    for (size_t r = 0; r < rows; ++r) {
      std::vector<float> v = RandomVec(m, &rng);
      (*p)[r] = k::ComputeInt8Params(v.data(), m, false);
      k::QuantizeI8F32(v.data(), m, (*p)[r], q->data() + r * m);
      (*s)[r] = k::SumI8I32(q->data() + r * m, m);
    }
  };
  fill(&a, &pa, &sa, nrows);
  fill(&b, &pb, &sb, krows);

  std::vector<float> c(nrows * krows, -1.0f);
  k::GemmI8TransBPanelF32(a.data(), pa.data(), sa.data(), b.data(),
                          pb.data(), sb.data(), c.data(), 0, nrows, m,
                          krows);
  for (size_t r = 0; r < nrows; ++r) {
    for (size_t j = 0; j < krows; ++j) {
      std::int32_t idot = k::DotI8I32(a.data() + r * m, b.data() + j * m, m);
      float want = static_cast<float>(
          k::DequantDotD(idot, pa[r], sa[r], pb[j], sb[j], m));
      EXPECT_EQ(c[r * krows + j], want) << r << "," << j;
    }
  }
  if (SimdActive()) {
    SetForceScalar(true);
    std::vector<float> c_s(nrows * krows, -2.0f);
    k::GemmI8TransBPanelF32(a.data(), pa.data(), sa.data(), b.data(),
                            pb.data(), sb.data(), c_s.data(), 0, nrows, m,
                            krows);
    SetForceScalar(false);
    EXPECT_EQ(c, c_s);  // exact integer dots -> bit-identical panels
  }
  // Partial panel [2, 4) leaves other rows untouched.
  std::vector<float> part(nrows * krows, 9.0f);
  k::GemmI8TransBPanelF32(a.data(), pa.data(), sa.data(), b.data(),
                          pb.data(), sb.data(), part.data(), 2, 4, m, krows);
  EXPECT_EQ(part[0], 9.0f);
  EXPECT_EQ(part[2 * krows], c[2 * krows]);
}

// ---- Quantized HNSW ---------------------------------------------------

std::vector<std::vector<float>> ClusteredVectors(size_t n, size_t dim,
                                                 size_t clusters,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(clusters);
  for (auto& c : centers) {
    c.resize(dim);
    for (float& x : c) x = static_cast<float>(rng.Normal());
  }
  std::vector<std::vector<float>> out(n);
  for (auto& v : out) {
    const std::vector<float>& c =
        centers[static_cast<size_t>(rng.UniformInt(0, clusters - 1))];
    v.resize(dim);
    for (size_t d = 0; d < dim; ++d) {
      v[d] = c[d] + static_cast<float>(rng.Normal(0.0, 0.3));
    }
  }
  return out;
}

std::vector<size_t> ExactTopK(const float* q,
                              const std::vector<std::vector<float>>& data,
                              size_t k) {
  std::vector<std::pair<double, size_t>> scored;
  for (size_t i = 0; i < data.size(); ++i) {
    scored.emplace_back(
        k::CosineF32(q, data[i].data(), data[i].size()), i);
  }
  size_t take = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first ||
                             (a.first == b.first && a.second < b.second);
                    });
  std::vector<size_t> out;
  for (size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

double QuantIndexRecallAt10(Quant quant) {
  const size_t n = 600, dim = 32, kk = 10;
  auto data = ClusteredVectors(n, dim, 12, 123);
  ann::HnswConfig cfg;
  cfg.quant = quant;
  ann::HnswIndex index(dim, cfg);
  std::vector<const float*> rows;
  for (const auto& v : data) rows.push_back(v.data());
  index.Build(rows);
  size_t hit = 0, total = 0;
  for (size_t q = 0; q < 40; ++q) {
    auto exact = ExactTopK(data[q * 7].data(), data, kk);
    std::set<size_t> want(exact.begin(), exact.end());
    for (const ann::ScoredId& s : index.Search(data[q * 7].data(), kk)) {
      hit += want.count(s.id);
    }
    total += kk;
  }
  return static_cast<double>(hit) / static_cast<double>(total);
}

TEST(QuantHnswTest, Int8IndexRecallStaysHigh) {
  EXPECT_GE(QuantIndexRecallAt10(Quant::kInt8), 0.9);
}

TEST(QuantHnswTest, Bf16IndexRecallStaysHigh) {
  EXPECT_GE(QuantIndexRecallAt10(Quant::kBf16), 0.9);
}

TEST(QuantHnswTest, QuantizedBuildIsDeterministic) {
  const size_t n = 300, dim = 16;
  auto data = ClusteredVectors(n, dim, 8, 321);
  std::vector<const float*> rows;
  for (const auto& v : data) rows.push_back(v.data());
  ann::HnswConfig cfg;
  cfg.quant = Quant::kInt8;
  ann::HnswIndex a(dim, cfg), b(dim, cfg);
  a.Build(rows);
  b.Build(rows);
  for (size_t q = 0; q < 10; ++q) {
    auto ra = a.Search(data[q].data(), 5);
    auto rb = b.Search(data[q].data(), 5);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id);
      EXPECT_EQ(ra[i].similarity, rb[i].similarity);
    }
  }
  EXPECT_GT(a.resident_bytes(), 0u);
}

TEST(QuantHnswTest, Int8IndexResidentBytesWellBelowFp32) {
  const size_t n = 500, dim = 64;
  auto data = ClusteredVectors(n, dim, 8, 99);
  std::vector<const float*> rows;
  for (const auto& v : data) rows.push_back(v.data());
  ann::HnswConfig f32cfg;
  ann::HnswConfig i8cfg;
  i8cfg.quant = Quant::kInt8;
  ann::HnswIndex f32(dim, f32cfg), i8(dim, i8cfg);
  f32.Build(rows);
  i8.Build(rows);
  // Row storage shrinks 4x; the graph structure is shared overhead, so
  // gate the whole-index ratio loosely.
  EXPECT_LT(static_cast<double>(i8.resident_bytes()),
            0.75 * static_cast<double>(f32.resident_bytes()));
}

// ---- Quantized EmbeddingStore -----------------------------------------

embedding::EmbeddingStore MakeStore(Quant quant, size_t n, size_t dim,
                                    uint64_t seed) {
  embedding::EmbeddingStore store(dim, quant);
  auto data = ClusteredVectors(n, dim, 10, seed);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(store.Add("k" + std::to_string(i), data[i]).ok());
  }
  return store;
}

TEST(QuantStoreTest, QuantizedNearestTracksFp32) {
  const size_t n = 400, dim = 24;
  auto data = ClusteredVectors(n, dim, 10, 55);
  embedding::EmbeddingStore f32(dim, Quant::kFp32);
  embedding::EmbeddingStore i8(dim, Quant::kInt8);
  embedding::EmbeddingStore bf16(dim, Quant::kBf16);
  for (size_t i = 0; i < n; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(f32.Add(key, data[i]).ok());
    ASSERT_TRUE(i8.Add(key, data[i]).ok());
    ASSERT_TRUE(bf16.Add(key, data[i]).ok());
  }
  size_t agree_i8 = 0, agree_bf16 = 0;
  const size_t queries = 25;
  for (size_t q = 0; q < queries; ++q) {
    auto want = f32.NearestToVector(data[q * 3], 5);
    auto got_i8 = i8.NearestToVector(data[q * 3], 5);
    auto got_bf16 = bf16.NearestToVector(data[q * 3], 5);
    ASSERT_EQ(want.size(), got_i8.size());
    agree_i8 += want[0].key == got_i8[0].key;
    agree_bf16 += want[0].key == got_bf16[0].key;
    // Rescoring contract: similarities come from the fp32 formula over
    // the dequantized row, so they sit within quantization error of the
    // fp32 store's value for the same key.
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(want[i].similarity, got_i8[i].similarity, 0.05);
      EXPECT_NEAR(want[i].similarity, got_bf16[i].similarity, 0.02);
    }
  }
  EXPECT_GE(agree_i8, queries - 2);
  EXPECT_GE(agree_bf16, queries - 1);
}

TEST(QuantStoreTest, FindDequantizesAndPointersStayStableAcrossOverwrite) {
  embedding::EmbeddingStore store(4, Quant::kInt8);
  ASSERT_TRUE(store.Add("a", {1.0f, -2.0f, 3.0f, -4.0f}).ok());
  const std::vector<float>* row = store.Find("a");
  ASSERT_NE(row, nullptr);
  ASSERT_EQ(row->size(), 4u);
  EXPECT_NEAR((*row)[0], 1.0f, 0.05f);
  EXPECT_NEAR((*row)[3], -4.0f, 0.05f);
  EXPECT_EQ(store.Find("a"), row);  // cached: same pointer
  // Grow the store (rehashes the cache's table) and overwrite the key:
  // the held pointer stays valid and tracks the new value.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        store.Add("p" + std::to_string(i), {0.1f, 0.2f, 0.3f, 0.4f}).ok());
    (void)store.Find("p" + std::to_string(i));
  }
  ASSERT_TRUE(store.Add("a", {10.0f, 20.0f, 30.0f, 40.0f}).ok());
  EXPECT_NEAR((*row)[0], 10.0f, 0.5f);
  EXPECT_NEAR((*row)[3], 40.0f, 0.5f);
  EXPECT_EQ(store.Find("a"), row);
  EXPECT_EQ(store.Find("missing"), nullptr);
}

TEST(QuantStoreTest, ResidentBytesShrinkAsAdvertised) {
  const size_t n = 256, dim = 64;
  auto f32 = MakeStore(Quant::kFp32, n, dim, 77);
  auto i8 = MakeStore(Quant::kInt8, n, dim, 77);
  auto bf16 = MakeStore(Quant::kBf16, n, dim, 77);
  // int8 rows are 1/4 the bytes (+ params/sums), bf16 rows 1/2; the
  // fp32 store additionally pays per-row vector headers, so the ratios
  // have headroom.
  EXPECT_LT(static_cast<double>(i8.ResidentBytes()),
            0.5 * static_cast<double>(f32.ResidentBytes()));
  EXPECT_LT(static_cast<double>(bf16.ResidentBytes()),
            0.65 * static_cast<double>(f32.ResidentBytes()));
  EXPECT_GT(i8.ResidentBytes(), n * dim);  // sanity: not underreporting
}

TEST(QuantStoreTest, SimilarityAnalogyAverageWorkQuantized) {
  for (Quant quant : {Quant::kInt8, Quant::kInt8Sym, Quant::kBf16}) {
    embedding::EmbeddingStore store(4, quant);
    ASSERT_TRUE(store.Add("x", {1.0f, 0.0f, 0.5f, -0.25f}).ok());
    ASSERT_TRUE(store.Add("y", {1.0f, 0.0f, 0.5f, -0.25f}).ok());
    ASSERT_TRUE(store.Add("z", {-1.0f, 0.0f, -0.5f, 0.25f}).ok());
    auto self = store.Similarity("x", "y");
    ASSERT_TRUE(self.ok());
    EXPECT_NEAR(self.ValueOrDie(), 1.0, 0.01);
    auto anti = store.Similarity("x", "z");
    ASSERT_TRUE(anti.ok());
    EXPECT_NEAR(anti.ValueOrDie(), -1.0, 0.01);
    EXPECT_FALSE(store.Similarity("x", "missing").ok());

    auto analogy = store.Analogy("x", "y", "z", 1);
    ASSERT_TRUE(analogy.ok());  // x:y :: z:? — z maps to itself's twin
    auto avg = store.AverageOf({"x", "z", "missing"});
    ASSERT_EQ(avg.size(), 4u);
    EXPECT_NEAR(avg[0], 0.0f, 0.02f);  // x and z cancel

    auto nearest = store.Nearest("x", 1);
    ASSERT_TRUE(nearest.ok());
    EXPECT_EQ(nearest.ValueOrDie()[0].key, "y");
  }
}

TEST(QuantStoreTest, CenterAndNormalizeRequantizes) {
  const size_t n = 50, dim = 16;
  auto store = MakeStore(Quant::kInt8, n, dim, 31);
  const std::vector<float>* row = store.Find("k0");
  ASSERT_NE(row, nullptr);
  store.CenterAndNormalize();
  // Rows are unit-norm after centering (up to quantization error), and
  // cached Find pointers track the new geometry.
  double norm = 0.0;
  for (float v : *row) norm += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(norm), 1.0, 0.02);
}

TEST(QuantStoreTest, AnnPathMatchesExactTopHitQuantized) {
  const size_t n = 500, dim = 24;
  auto store = MakeStore(Quant::kInt8, n, dim, 91);
  auto data = ClusteredVectors(8, dim, 4, 1234);  // fresh queries
  std::vector<std::vector<embedding::Neighbor>> exact;
  for (const auto& q : data) exact.push_back(store.NearestToVector(q, 5));
  ASSERT_TRUE(store.EnableAnn().ok());
  EXPECT_TRUE(store.AnnActive());
  size_t agree = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    auto ann = store.NearestToVector(data[i], 5);
    ASSERT_FALSE(ann.empty());
    agree += ann[0].key == exact[i][0].key;
    // Both paths rescore in fp32, so when they return the same key the
    // similarity matches bit-for-bit.
    if (ann[0].key == exact[i][0].key) {
      EXPECT_EQ(ann[0].similarity, exact[i][0].similarity);
    }
  }
  EXPECT_GE(agree, data.size() - 1);
}

TEST(QuantStoreTest, ConcurrentFindAndSearchAreRaceFree) {
  // The TSan half of the quant label: many threads hammer the dequant
  // cache (insert + lookup) while others run quantized searches.
  const size_t n = 300, dim = 16;
  auto store = MakeStore(Quant::kInt8, n, dim, 13);
  ASSERT_TRUE(store.EnableAnn().ok());
  auto queries = ClusteredVectors(8, dim, 4, 7);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::vector<float>* row =
            store.Find("k" + std::to_string((t * 37 + i) % n));
        if (row == nullptr || row->size() != dim) bad.fetch_add(1);
      }
    });
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        auto hits = store.NearestToVector(queries[(t + i) % queries.size()], 3);
        if (hits.size() != 3) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(QuantStoreTest, CopyAndMovePreserveQuantizedContents) {
  auto store = MakeStore(Quant::kBf16, 20, 8, 44);
  embedding::EmbeddingStore copy(store);
  EXPECT_EQ(copy.quant(), Quant::kBf16);
  EXPECT_EQ(copy.size(), store.size());
  auto a = store.Similarity("k0", "k1");
  auto b = copy.Similarity("k0", "k1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie(), b.ValueOrDie());
  embedding::EmbeddingStore moved(std::move(copy));
  auto c = moved.Similarity("k0", "k1");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a.ValueOrDie(), c.ValueOrDie());
}

}  // namespace
}  // namespace autodc
