#include "src/nn/kernels.h"

// AVX2+FMA kernel table. This file is compiled with -mavx2 -mfma when
// the toolchain supports them (see src/CMakeLists.txt); everything is
// guarded by __AVX2__ so a build without those flags still links and
// reports the table as absent. The dispatcher only installs this table
// after __builtin_cpu_supports confirms the CPU really has AVX2+FMA, so
// no code here runs on hardware that cannot execute it.
//
// Determinism note: every kernel fixes its lane layout, accumulator
// count, and horizontal-reduction order, so results depend only on the
// inputs. The Gemm panel kernels additionally guarantee that each
// OUTPUT ROW sees the same per-element operation sequence
// (c = fma(a_ij, b_jt, c), j ascending) whether it was computed by the
// 8x8 micro-kernel, the single-row path, or the scalar column
// remainder — which is what makes matmul results independent of how
// ParallelFor chunks rows across threads.

#ifdef __AVX2__

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace autodc::nn::kernels {
namespace {

inline float Hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

inline double Hsum256d(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d s = _mm_add_pd(lo, hi);
  s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
  return _mm_cvtsd_f64(s);
}

// Widens the low/high halves of 8 packed floats to 2x4 doubles — the
// building block of the double-accumulation reductions.
inline void CvtPd(__m256 v, __m256d* lo, __m256d* hi) {
  *lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  *hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

// ---- Level-1 ----------------------------------------------------------

float Avx2DotF32(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                           _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                           _mm256_loadu_ps(b + i), acc0);
  }
  float s = Hsum256(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                  _mm256_add_ps(acc2, acc3)));
  for (; i < n; ++i) s = std::fmaf(a[i], b[i], s);
  return s;
}

double Avx2DotF32D(const float* a, const float* b, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d alo, ahi, blo, bhi;
    CvtPd(_mm256_loadu_ps(a + i), &alo, &ahi);
    CvtPd(_mm256_loadu_ps(b + i), &blo, &bhi);
    acc_lo = _mm256_fmadd_pd(alo, blo, acc_lo);
    acc_hi = _mm256_fmadd_pd(ahi, bhi, acc_hi);
  }
  double s = Hsum256d(_mm256_add_pd(acc_lo, acc_hi));
  for (; i < n; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

double Avx2SumF32(const float* x, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d lo, hi;
    CvtPd(_mm256_loadu_ps(x + i), &lo, &hi);
    acc_lo = _mm256_add_pd(acc_lo, lo);
    acc_hi = _mm256_add_pd(acc_hi, hi);
  }
  double s = Hsum256d(_mm256_add_pd(acc_lo, acc_hi));
  for (; i < n; ++i) s += x[i];
  return s;
}

double Avx2SumSqF32(const float* x, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d lo, hi;
    CvtPd(_mm256_loadu_ps(x + i), &lo, &hi);
    acc_lo = _mm256_fmadd_pd(lo, lo, acc_lo);
    acc_hi = _mm256_fmadd_pd(hi, hi, acc_hi);
  }
  double s = Hsum256d(_mm256_add_pd(acc_lo, acc_hi));
  for (; i < n; ++i) s += static_cast<double>(x[i]) * x[i];
  return s;
}

double Avx2SqDistF32(const float* a, const float* b, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d alo, ahi, blo, bhi;
    CvtPd(_mm256_loadu_ps(a + i), &alo, &ahi);
    CvtPd(_mm256_loadu_ps(b + i), &blo, &bhi);
    __m256d dlo = _mm256_sub_pd(alo, blo);
    __m256d dhi = _mm256_sub_pd(ahi, bhi);
    acc_lo = _mm256_fmadd_pd(dlo, dlo, acc_lo);
    acc_hi = _mm256_fmadd_pd(dhi, dhi, acc_hi);
  }
  double s = Hsum256d(_mm256_add_pd(acc_lo, acc_hi));
  for (; i < n; ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return s;
}

// Fused single pass over both vectors: dot, |a|^2, |b|^2 in double
// lanes. Double accumulation keeps the SIMD path within a few ULP of the
// scalar one, which the exact-value cosine tests (orthogonal -> 0,
// identical -> 1) rely on.
double Avx2CosineF32(const float* a, const float* b, size_t n) {
  __m256d dot_lo = _mm256_setzero_pd(), dot_hi = _mm256_setzero_pd();
  __m256d na_lo = _mm256_setzero_pd(), na_hi = _mm256_setzero_pd();
  __m256d nb_lo = _mm256_setzero_pd(), nb_hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d alo, ahi, blo, bhi;
    CvtPd(_mm256_loadu_ps(a + i), &alo, &ahi);
    CvtPd(_mm256_loadu_ps(b + i), &blo, &bhi);
    dot_lo = _mm256_fmadd_pd(alo, blo, dot_lo);
    dot_hi = _mm256_fmadd_pd(ahi, bhi, dot_hi);
    na_lo = _mm256_fmadd_pd(alo, alo, na_lo);
    na_hi = _mm256_fmadd_pd(ahi, ahi, na_hi);
    nb_lo = _mm256_fmadd_pd(blo, blo, nb_lo);
    nb_hi = _mm256_fmadd_pd(bhi, bhi, nb_hi);
  }
  double dot = Hsum256d(_mm256_add_pd(dot_lo, dot_hi));
  double na = Hsum256d(_mm256_add_pd(na_lo, na_hi));
  double nb = Hsum256d(_mm256_add_pd(nb_lo, nb_hi));
  for (; i < n; ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double Avx2CosineF64(const double* a, const double* b, size_t n) {
  __m256d dot = _mm256_setzero_pd();
  __m256d na = _mm256_setzero_pd();
  __m256d nb = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d va = _mm256_loadu_pd(a + i);
    __m256d vb = _mm256_loadu_pd(b + i);
    dot = _mm256_fmadd_pd(va, vb, dot);
    na = _mm256_fmadd_pd(va, va, na);
    nb = _mm256_fmadd_pd(vb, vb, nb);
  }
  double d = Hsum256d(dot), sa = Hsum256d(na), sb = Hsum256d(nb);
  for (; i < n; ++i) {
    d += a[i] * b[i];
    sa += a[i] * a[i];
    sb += b[i] * b[i];
  }
  if (sa <= 0.0 || sb <= 0.0) return 0.0;
  return d / (std::sqrt(sa) * std::sqrt(sb));
}

void Avx2AxpyF32(float alpha, const float* x, float* y, size_t n) {
  __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}

void Avx2ScaleAddF32(float alpha, const float* x, float beta, float* y,
                     size_t n) {
  __m256 va = _mm256_set1_ps(alpha);
  __m256 vb = _mm256_set1_ps(beta);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 by = _mm256_mul_ps(vb, _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), by));
  }
  for (; i < n; ++i) y[i] = std::fmaf(alpha, x[i], beta * y[i]);
}

void Avx2ScaleF32(float s, float* y, size_t n) {
  __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(vs, _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] *= s;
}

void Avx2MulF32(const float* x, float* y, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void Avx2MulAddF32(const float* a, const float* b, float* y, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fmaf(a[i], b[i], y[i]);
}

void Avx2ClampF32(float lo, float hi, float* y, size_t n) {
  __m256 vlo = _mm256_set1_ps(lo);
  __m256 vhi = _mm256_set1_ps(hi);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_min_ps(_mm256_max_ps(v, vlo), vhi));
  }
  for (; i < n; ++i) y[i] = std::clamp(y[i], lo, hi);
}

void Avx2AdamUpdateF32(const float* g, float* m, float* v, float* p, size_t n,
                       float lr, float beta1, float beta2, float eps,
                       float bc1, float bc2) {
  __m256 vb1 = _mm256_set1_ps(beta1);
  __m256 vb2 = _mm256_set1_ps(beta2);
  __m256 v1mb1 = _mm256_set1_ps(1.0f - beta1);
  __m256 v1mb2 = _mm256_set1_ps(1.0f - beta2);
  __m256 vlr = _mm256_set1_ps(lr);
  __m256 veps = _mm256_set1_ps(eps);
  __m256 vbc1 = _mm256_set1_ps(bc1);
  __m256 vbc2 = _mm256_set1_ps(bc2);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vg = _mm256_loadu_ps(g + i);
    __m256 vm = _mm256_fmadd_ps(vb1, _mm256_loadu_ps(m + i),
                                _mm256_mul_ps(v1mb1, vg));
    __m256 vv = _mm256_fmadd_ps(vb2, _mm256_loadu_ps(v + i),
                                _mm256_mul_ps(v1mb2, _mm256_mul_ps(vg, vg)));
    _mm256_storeu_ps(m + i, vm);
    _mm256_storeu_ps(v + i, vv);
    __m256 mhat = _mm256_div_ps(vm, vbc1);
    __m256 vhat = _mm256_div_ps(vv, vbc2);
    __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(vhat), veps);
    __m256 step = _mm256_div_ps(_mm256_mul_ps(vlr, mhat), denom);
    _mm256_storeu_ps(p + i, _mm256_sub_ps(_mm256_loadu_ps(p + i), step));
  }
  for (; i < n; ++i) {
    m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
    v[i] = beta2 * v[i] + (1.0f - beta2) * g[i] * g[i];
    float mhat = m[i] / bc1;
    float vhat = v[i] / bc2;
    p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

// ---- Low-precision ----------------------------------------------------

inline std::int32_t Hsum256i(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
  return _mm_cvtsi128_si32(s);
}

// Exact i32 pair-dot of 32 int8 lanes: |a| as u8 against sign(b, a) as
// i8 through maddubs (i16 pair sums, saturation impossible while
// |q| <= 127), widened to i32 lanes by madd against ones.
inline __m256i DotI8Block(__m256i va, __m256i vb, __m256i ones16) {
  __m256i abs_a = _mm256_abs_epi8(va);
  __m256i sgn_b = _mm256_sign_epi8(vb, va);
  return _mm256_madd_epi16(_mm256_maddubs_epi16(abs_a, sgn_b), ones16);
}

// Sum of 32 signed int8 lanes as i32 lanes (two epi8->epi16 widenings).
inline __m256i SumI8Block(__m256i v, __m256i ones16) {
  __m256i lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(v));
  __m256i hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(v, 1));
  return _mm256_add_epi32(_mm256_madd_epi16(lo, ones16),
                          _mm256_madd_epi16(hi, ones16));
}

void Avx2QuantizeI8F32(const float* x, size_t n, Int8Params p,
                       std::int8_t* q) {
  const float inv = 1.0f / p.scale;
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i vzp = _mm256_set1_epi32(p.zero_point);
  const __m256i vlo = _mm256_set1_epi32(-127);
  const __m256i vhi = _mm256_set1_epi32(127);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i),
                                                 vinv));
    v = _mm256_add_epi32(v, vzp);
    v = _mm256_min_epi32(_mm256_max_epi32(v, vlo), vhi);
    __m128i lo = _mm256_castsi256_si128(v);
    __m128i hi = _mm256_extracti128_si256(v, 1);
    __m128i packed16 = _mm_packs_epi32(lo, hi);
    __m128i packed8 = _mm_packs_epi16(packed16, packed16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i), packed8);
  }
  for (; i < n; ++i) {
    // Same rounding contract as the vector lanes (and the scalar
    // table): RNE via cvtss, out-of-range -> INT32_MIN.
    std::int32_t v =
        _mm_cvtss_si32(_mm_set_ss(x[i] * inv)) + p.zero_point;
    q[i] = static_cast<std::int8_t>(std::clamp(v, -127, 127));
  }
}

void Avx2DequantizeI8F32(const std::int8_t* q, size_t n, Int8Params p,
                         float* x) {
  const __m256 vs = _mm256_set1_ps(p.scale);
  const __m256i vzp = _mm256_set1_epi32(p.zero_point);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + i));
    __m256i w = _mm256_sub_epi32(_mm256_cvtepi8_epi32(raw), vzp);
    _mm256_storeu_ps(x + i, _mm256_mul_ps(vs, _mm256_cvtepi32_ps(w)));
  }
  for (; i < n; ++i) {
    x[i] = p.scale * static_cast<float>(q[i] - p.zero_point);
  }
}

std::int32_t Avx2DotI8I32(const std::int8_t* a, const std::int8_t* b,
                          size_t n) {
  const __m256i ones16 = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi32(acc, DotI8Block(va, vb, ones16));
  }
  std::int32_t s = Hsum256i(acc);
  for (; i < n; ++i) s += static_cast<std::int32_t>(a[i]) * b[i];
  return s;
}

std::int32_t Avx2SumI8I32(const std::int8_t* x, size_t n) {
  const __m256i ones16 = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    acc = _mm256_add_epi32(acc, SumI8Block(v, ones16));
  }
  std::int32_t s = Hsum256i(acc);
  for (; i < n; ++i) s += x[i];
  return s;
}

// Fused integer moments (dot, sums, sums of squares) for the cosine /
// sqdist combine. Every accumulator is exact, so the doubles produced
// by the shared dequant algebra match the scalar table bit-for-bit.
struct Avx2Int8Moments {
  std::int32_t dot, sa, sb;
  std::int64_t saa, sbb;
};

Avx2Int8Moments Int8MomentsImpl(const std::int8_t* a, const std::int8_t* b,
                                size_t n) {
  const __m256i ones16 = _mm256_set1_epi16(1);
  __m256i acc_dot = _mm256_setzero_si256();
  __m256i acc_sa = _mm256_setzero_si256();
  __m256i acc_sb = _mm256_setzero_si256();
  __m256i acc_saa = _mm256_setzero_si256();
  __m256i acc_sbb = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i abs_a = _mm256_abs_epi8(va);
    __m256i abs_b = _mm256_abs_epi8(vb);
    acc_dot = _mm256_add_epi32(acc_dot, DotI8Block(va, vb, ones16));
    acc_saa = _mm256_add_epi32(
        acc_saa,
        _mm256_madd_epi16(_mm256_maddubs_epi16(abs_a, abs_a), ones16));
    acc_sbb = _mm256_add_epi32(
        acc_sbb,
        _mm256_madd_epi16(_mm256_maddubs_epi16(abs_b, abs_b), ones16));
    acc_sa = _mm256_add_epi32(acc_sa, SumI8Block(va, ones16));
    acc_sb = _mm256_add_epi32(acc_sb, SumI8Block(vb, ones16));
  }
  Avx2Int8Moments m;
  m.dot = Hsum256i(acc_dot);
  m.sa = Hsum256i(acc_sa);
  m.sb = Hsum256i(acc_sb);
  m.saa = Hsum256i(acc_saa);
  m.sbb = Hsum256i(acc_sbb);
  for (; i < n; ++i) {
    std::int32_t av = a[i], bv = b[i];
    m.dot += av * bv;
    m.sa += av;
    m.sb += bv;
    m.saa += av * av;
    m.sbb += bv * bv;
  }
  return m;
}

double Avx2CosineI8(const std::int8_t* a, Int8Params pa, const std::int8_t* b,
                    Int8Params pb, size_t n) {
  Avx2Int8Moments m = Int8MomentsImpl(a, b, n);
  double na = DequantNormSqD(m.saa, pa, m.sa, n);
  double nb = DequantNormSqD(m.sbb, pb, m.sb, n);
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  double dot = DequantDotD(m.dot, pa, m.sa, pb, m.sb, n);
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double Avx2SqDistI8(const std::int8_t* a, Int8Params pa, const std::int8_t* b,
                    Int8Params pb, size_t n) {
  Avx2Int8Moments m = Int8MomentsImpl(a, b, n);
  double na = DequantNormSqD(m.saa, pa, m.sa, n);
  double nb = DequantNormSqD(m.sbb, pb, m.sb, n);
  double dot = DequantDotD(m.dot, pa, m.sa, pb, m.sb, n);
  // Out-of-line combine: see DequantSqDistCombineD's doc for why
  // inlining it here would break bit-identity.
  return DequantSqDistCombineD(na, nb, dot);
}

// Same rounding/NaN contract as the scalar table's F32ToBf16One.
inline std::uint16_t Bf16One(float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  if ((bits & 0x7FFFFFFFu) > 0x7F800000u) {
    return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);
  }
  std::uint32_t r = bits + 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>(r >> 16);
}

inline float Bf16ToFloatOne(std::uint16_t h) {
  std::uint32_t bits = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

// Widens 8 bf16 lanes to packed f32 (exact: shift into the high half).
inline __m256 Bf16Load8(const std::uint16_t* p) {
  __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
}

void Avx2F32ToBf16(const float* x, size_t n, std::uint16_t* y) {
  const __m256i bias = _mm256_set1_epi32(0x7FFF);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i qnan = _mm256_set1_epi32(0x0040);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    __m256i bits = _mm256_castps_si256(v);
    __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(bits, 16), one);
    __m256i rounded = _mm256_srli_epi32(
        _mm256_add_epi32(_mm256_add_epi32(bits, bias), lsb), 16);
    // NaN lanes (v != v) keep their truncated pattern with the quiet
    // bit forced, instead of rounding into infinity.
    __m256i nan_val =
        _mm256_or_si256(_mm256_srli_epi32(bits, 16), qnan);
    __m256i is_nan =
        _mm256_castps_si256(_mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    __m256i out = _mm256_blendv_epi8(rounded, nan_val, is_nan);
    // Pack 8 u32 (each <= 0xFFFF) to 8 u16; packus interleaves 128-bit
    // lanes, so restore order with a 64-bit permute.
    __m256i packed = _mm256_packus_epi32(out, out);
    packed = _mm256_permute4x64_epi64(packed, 0x08);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(y + i),
                     _mm256_castsi256_si128(packed));
  }
  for (; i < n; ++i) y[i] = Bf16One(x[i]);
}

void Avx2Bf16ToF32(const std::uint16_t* x, size_t n, float* y) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, Bf16Load8(x + i));
  }
  for (; i < n; ++i) y[i] = Bf16ToFloatOne(x[i]);
}

double Avx2DotBf16D(const std::uint16_t* a, const std::uint16_t* b,
                    size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d alo, ahi, blo, bhi;
    CvtPd(Bf16Load8(a + i), &alo, &ahi);
    CvtPd(Bf16Load8(b + i), &blo, &bhi);
    acc_lo = _mm256_fmadd_pd(alo, blo, acc_lo);
    acc_hi = _mm256_fmadd_pd(ahi, bhi, acc_hi);
  }
  double s = Hsum256d(_mm256_add_pd(acc_lo, acc_hi));
  for (; i < n; ++i) {
    s += static_cast<double>(Bf16ToFloatOne(a[i])) * Bf16ToFloatOne(b[i]);
  }
  return s;
}

double Avx2SqDistBf16(const std::uint16_t* a, const std::uint16_t* b,
                      size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d alo, ahi, blo, bhi;
    CvtPd(Bf16Load8(a + i), &alo, &ahi);
    CvtPd(Bf16Load8(b + i), &blo, &bhi);
    __m256d dlo = _mm256_sub_pd(alo, blo);
    __m256d dhi = _mm256_sub_pd(ahi, bhi);
    acc_lo = _mm256_fmadd_pd(dlo, dlo, acc_lo);
    acc_hi = _mm256_fmadd_pd(dhi, dhi, acc_hi);
  }
  double s = Hsum256d(_mm256_add_pd(acc_lo, acc_hi));
  for (; i < n; ++i) {
    double d = static_cast<double>(Bf16ToFloatOne(a[i])) - Bf16ToFloatOne(b[i]);
    s += d * d;
  }
  return s;
}

// ---- Level-3 ----------------------------------------------------------

// C[8x8] += A[8 x kc] * B[kc x 8]. The 8x8 C block lives in eight ymm
// accumulators; each B row is loaded once and feeds eight FMAs (one per
// A row broadcast).
void Avx2Gemm8x8F32(const float* a, size_t lda, const float* b, size_t ldb,
                    float* c, size_t ldc, size_t kc) {
  __m256 c0 = _mm256_loadu_ps(c + 0 * ldc);
  __m256 c1 = _mm256_loadu_ps(c + 1 * ldc);
  __m256 c2 = _mm256_loadu_ps(c + 2 * ldc);
  __m256 c3 = _mm256_loadu_ps(c + 3 * ldc);
  __m256 c4 = _mm256_loadu_ps(c + 4 * ldc);
  __m256 c5 = _mm256_loadu_ps(c + 5 * ldc);
  __m256 c6 = _mm256_loadu_ps(c + 6 * ldc);
  __m256 c7 = _mm256_loadu_ps(c + 7 * ldc);
  for (size_t j = 0; j < kc; ++j) {
    __m256 brow = _mm256_loadu_ps(b + j * ldb);
    c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 0 * lda + j), brow, c0);
    c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 1 * lda + j), brow, c1);
    c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 2 * lda + j), brow, c2);
    c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 3 * lda + j), brow, c3);
    c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 4 * lda + j), brow, c4);
    c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 5 * lda + j), brow, c5);
    c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 6 * lda + j), brow, c6);
    c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 7 * lda + j), brow, c7);
  }
  _mm256_storeu_ps(c + 0 * ldc, c0);
  _mm256_storeu_ps(c + 1 * ldc, c1);
  _mm256_storeu_ps(c + 2 * ldc, c2);
  _mm256_storeu_ps(c + 3 * ldc, c3);
  _mm256_storeu_ps(c + 4 * ldc, c4);
  _mm256_storeu_ps(c + 5 * ldc, c5);
  _mm256_storeu_ps(c + 6 * ldc, c6);
  _mm256_storeu_ps(c + 7 * ldc, c7);
}

// One output row: crow[0:k] += arow[0:m] * B, j ascending. Same
// per-element fma sequence as the micro-kernel, so a row computed here
// matches one computed inside an 8-row block bit-for-bit.
inline void Avx2GemmRow(const float* arow, const float* b, float* crow,
                        size_t m, size_t k) {
  for (size_t j = 0; j < m; ++j) {
    __m256 av = _mm256_broadcast_ss(arow + j);
    const float* brow = b + j * k;
    size_t t = 0;
    for (; t + 8 <= k; t += 8) {
      _mm256_storeu_ps(crow + t,
                       _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + t),
                                       _mm256_loadu_ps(crow + t)));
    }
    for (; t < k; ++t) crow[t] = std::fmaf(arow[j], brow[t], crow[t]);
  }
}

void Avx2GemmPanelF32(const float* a, const float* b, float* c, size_t r0,
                      size_t r1, size_t m, size_t k) {
  size_t i0 = r0;
  for (; i0 + 8 <= r1; i0 += 8) {
    size_t t = 0;
    for (; t + 8 <= k; t += 8) {
      Avx2Gemm8x8F32(a + i0 * m, m, b + t, k, c + i0 * k + t, k, m);
    }
    if (t < k) {
      for (size_t i = i0; i < i0 + 8; ++i) {
        const float* arow = a + i * m;
        float* crow = c + i * k;
        for (size_t j = 0; j < m; ++j) {
          float av = arow[j];
          const float* brow = b + j * k;
          for (size_t tt = t; tt < k; ++tt) {
            crow[tt] = std::fmaf(av, brow[tt], crow[tt]);
          }
        }
      }
    }
  }
  for (; i0 < r1; ++i0) {
    Avx2GemmRow(a + i0 * m, b, c + i0 * k, m, k);
  }
}

void Avx2GemmTransAPanelF32(const float* a, const float* b, float* c,
                            size_t c0, size_t c1, size_t m, size_t n,
                            size_t k) {
  // Output row j of C is column j of A against all of B: an axpy
  // accumulation over A's rows, i ascending, vectorized over C's
  // columns.
  for (size_t j = c0; j < c1; ++j) {
    float* crow = c + j * k;
    for (size_t i = 0; i < m; ++i) {
      __m256 av = _mm256_broadcast_ss(a + i * n + j);
      const float* brow = b + i * k;
      size_t t = 0;
      for (; t + 8 <= k; t += 8) {
        _mm256_storeu_ps(crow + t,
                         _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + t),
                                         _mm256_loadu_ps(crow + t)));
      }
      for (; t < k; ++t) crow[t] = std::fmaf(a[i * n + j], brow[t], crow[t]);
    }
  }
}

void Avx2GemmTransBPanelF32(const float* a, const float* b, float* c,
                            size_t r0, size_t r1, size_t m, size_t k) {
  // Row of A against rows of B: independent float-accumulated dots. The
  // float (vs. the scalar path's double) accumulation stays within the
  // documented 1e-5 cross-path tolerance at the matrix sizes the models
  // use.
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * m;
    float* crow = c + i * k;
    for (size_t t = 0; t < k; ++t) {
      crow[t] = Avx2DotF32(arow, b + t * m, m);
    }
  }
}

constexpr KernelOps kAvx2Ops = {
    "avx2+fma",
    Avx2DotF32,
    Avx2DotF32D,
    Avx2SumF32,
    Avx2SumSqF32,
    Avx2SqDistF32,
    Avx2CosineF32,
    Avx2CosineF64,
    Avx2AxpyF32,
    Avx2ScaleAddF32,
    Avx2ScaleF32,
    Avx2MulF32,
    Avx2MulAddF32,
    Avx2ClampF32,
    Avx2AdamUpdateF32,
    Avx2Gemm8x8F32,
    Avx2GemmPanelF32,
    Avx2GemmTransAPanelF32,
    Avx2GemmTransBPanelF32,
    Avx2QuantizeI8F32,
    Avx2DequantizeI8F32,
    Avx2DotI8I32,
    Avx2SumI8I32,
    Avx2CosineI8,
    Avx2SqDistI8,
    Avx2F32ToBf16,
    Avx2Bf16ToF32,
    Avx2DotBf16D,
    Avx2SqDistBf16,
};

}  // namespace

const KernelOps* Avx2Ops() { return &kAvx2Ops; }

}  // namespace autodc::nn::kernels

#else  // !__AVX2__

namespace autodc::nn::kernels {

const KernelOps* Avx2Ops() { return nullptr; }

}  // namespace autodc::nn::kernels

#endif  // __AVX2__
