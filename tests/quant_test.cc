// Tests for the low-precision fast path (DESIGN.md §11): int8/bf16
// kernel agreement across dispatch paths (int8 is bit-exact, bf16 holds
// the normal float tolerance), quantize/dequantize round-trip error
// bounds, degenerate inputs, and quantized HNSW recall, determinism and
// resident bytes (`ctest -L quant`).
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/ann/hnsw.h"
#include "src/common/rng.h"
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

TEST_F(QuantKernelsTest, Bf16DotSqDistAgreeAcrossPaths) {
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
    double sq_s = k::SqDistBf16(ha.data(), hb.data(), n);
    SetForceScalar(false);
    ExpectClose(dot_s, k::DotBf16D(ha.data(), hb.data(), n), "bf16 dot", n);
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

}  // namespace
}  // namespace autodc
