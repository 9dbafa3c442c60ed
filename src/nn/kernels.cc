#include "src/nn/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/common/env.h"
#include "src/obs/metrics.h"

// Portable scalar kernel table + runtime dispatch. The scalar loops here
// are operation-for-operation identical to the pre-kernel (seed) code
// they replaced, so forcing the scalar table reproduces seed results
// bit-for-bit. This translation unit is compiled WITHOUT -mavx2, so the
// compiler cannot auto-vectorize these loops into instructions that
// would fault on a non-AVX2 CPU.

namespace autodc::nn::kernels {

namespace {

// ---- Scalar level-1 ---------------------------------------------------

float ScalarDotF32(const float* a, const float* b, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double ScalarDotF32D(const float* a, const float* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

double ScalarSumF32(const float* x, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += x[i];
  return s;
}

double ScalarSumSqF32(const float* x, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(x[i]) * x[i];
  return s;
}

double ScalarSqDistF32(const float* a, const float* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return s;
}

// Matches the seed CosineImpl<T>: one pass accumulating dot/na/nb in
// doubles, interleaved in ascending index order.
template <typename T>
double ScalarCosine(const T* a, const T* b, size_t n) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double ScalarCosineF32(const float* a, const float* b, size_t n) {
  return ScalarCosine(a, b, n);
}

double ScalarCosineF64(const double* a, const double* b, size_t n) {
  return ScalarCosine(a, b, n);
}

void ScalarAxpyF32(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i] * alpha;
}

void ScalarScaleAddF32(float alpha, const float* x, float beta, float* y,
                       size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

void ScalarScaleF32(float s, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] *= s;
}

void ScalarMulF32(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] *= x[i];
}

void ScalarMulAddF32(const float* a, const float* b, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a[i] * b[i];
}

void ScalarClampF32(float lo, float hi, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = std::clamp(y[i], lo, hi);
}

// Replicates the seed Adam::ApplyStep element loop exactly.
void ScalarAdamUpdateF32(const float* g, float* m, float* v, float* p,
                         size_t n, float lr, float beta1, float beta2,
                         float eps, float bc1, float bc2) {
  for (size_t i = 0; i < n; ++i) {
    m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
    v[i] = beta2 * v[i] + (1.0f - beta2) * g[i] * g[i];
    float mhat = m[i] / bc1;
    float vhat = v[i] / bc2;
    p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

// ---- Scalar low-precision ---------------------------------------------

// Matches _mm256_cvtps_epi32 semantics: round-to-nearest-even, with
// out-of-range (and NaN) collapsing to INT32_MIN, so the scalar and
// AVX2 quantizers agree bit-for-bit even on out-of-contract inputs.
inline std::int32_t RoundF32ToI32(float r) {
  if (!(r >= -2147483648.0f && r < 2147483648.0f)) return INT32_MIN;
  return static_cast<std::int32_t>(std::nearbyintf(r));
}

void ScalarQuantizeI8F32(const float* x, size_t n, Int8Params p,
                         std::int8_t* q) {
  const float inv = 1.0f / p.scale;
  for (size_t i = 0; i < n; ++i) {
    std::int32_t v = RoundF32ToI32(x[i] * inv) + p.zero_point;
    q[i] = static_cast<std::int8_t>(std::clamp(v, -127, 127));
  }
}

void ScalarDequantizeI8F32(const std::int8_t* q, size_t n, Int8Params p,
                           float* x) {
  for (size_t i = 0; i < n; ++i) {
    x[i] = p.scale * static_cast<float>(q[i] - p.zero_point);
  }
}

std::int32_t ScalarDotI8I32(const std::int8_t* a, const std::int8_t* b,
                            size_t n) {
  std::int32_t s = 0;
  for (size_t i = 0; i < n; ++i) {
    s += static_cast<std::int32_t>(a[i]) * b[i];
  }
  return s;
}

std::int32_t ScalarSumI8I32(const std::int8_t* x, size_t n) {
  std::int32_t s = 0;
  for (size_t i = 0; i < n; ++i) s += x[i];
  return s;
}

// One fused integer pass: dot, element sums, sums of squares. All sums
// are exact, and the final combine goes through the shared inline
// dequant algebra in kernels.h, so the AVX2 twin produces bit-identical
// doubles.
struct Int8Moments {
  std::int32_t dot = 0, sa = 0, sb = 0;
  std::int64_t saa = 0, sbb = 0;
};

Int8Moments ScalarInt8Moments(const std::int8_t* a, const std::int8_t* b,
                              size_t n) {
  Int8Moments m;
  for (size_t i = 0; i < n; ++i) {
    std::int32_t av = a[i], bv = b[i];
    m.dot += av * bv;
    m.sa += av;
    m.sb += bv;
    m.saa += av * av;
    m.sbb += bv * bv;
  }
  return m;
}

double ScalarCosineI8(const std::int8_t* a, Int8Params pa,
                      const std::int8_t* b, Int8Params pb, size_t n) {
  Int8Moments m = ScalarInt8Moments(a, b, n);
  double na = DequantNormSqD(m.saa, pa, m.sa, n);
  double nb = DequantNormSqD(m.sbb, pb, m.sb, n);
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  double dot = DequantDotD(m.dot, pa, m.sa, pb, m.sb, n);
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double ScalarSqDistI8(const std::int8_t* a, Int8Params pa,
                      const std::int8_t* b, Int8Params pb, size_t n) {
  Int8Moments m = ScalarInt8Moments(a, b, n);
  double na = DequantNormSqD(m.saa, pa, m.sa, n);
  double nb = DequantNormSqD(m.sbb, pb, m.sb, n);
  double dot = DequantDotD(m.dot, pa, m.sa, pb, m.sb, n);
  return DequantSqDistCombineD(na, nb, dot);
}

// f32 -> bf16 round-to-nearest-even with NaN preserved (quiet bit
// forced so a NaN whose payload lives in the truncated bits does not
// round into infinity). Shared by the AVX2 translation unit's tail
// loops via the table entry.
inline std::uint16_t F32ToBf16One(float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  if ((bits & 0x7FFFFFFFu) > 0x7F800000u) {
    return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);
  }
  std::uint32_t r = bits + 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>(r >> 16);
}

inline float Bf16ToF32One(std::uint16_t h) {
  std::uint32_t bits = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

void ScalarF32ToBf16(const float* x, size_t n, std::uint16_t* y) {
  for (size_t i = 0; i < n; ++i) y[i] = F32ToBf16One(x[i]);
}

void ScalarBf16ToF32(const std::uint16_t* x, size_t n, float* y) {
  for (size_t i = 0; i < n; ++i) y[i] = Bf16ToF32One(x[i]);
}

double ScalarDotBf16D(const std::uint16_t* a, const std::uint16_t* b,
                      size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += static_cast<double>(Bf16ToF32One(a[i])) * Bf16ToF32One(b[i]);
  }
  return s;
}

double ScalarSqDistBf16(const std::uint16_t* a, const std::uint16_t* b,
                        size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double d = static_cast<double>(Bf16ToF32One(a[i])) - Bf16ToF32One(b[i]);
    s += d * d;
  }
  return s;
}

// ---- Scalar level-3 ---------------------------------------------------

// Tile edge shared with the seed Tensor matmuls: the inner dimension is
// walked in 64-wide slabs so the touched B rows stay cache-resident.
constexpr size_t kTileInner = 64;

void ScalarGemm8x8F32(const float* a, size_t lda, const float* b, size_t ldb,
                      float* c, size_t ldc, size_t kc) {
  for (size_t j = 0; j < kc; ++j) {
    const float* brow = b + j * ldb;
    for (size_t i = 0; i < 8; ++i) {
      float av = a[i * lda + j];
      float* crow = c + i * ldc;
      for (size_t t = 0; t < 8; ++t) crow[t] += av * brow[t];
    }
  }
}

// Identical to the seed MatMul row-block body (tiled axpy-rows).
void ScalarGemmPanelF32(const float* a, const float* b, float* c, size_t r0,
                        size_t r1, size_t m, size_t k) {
  for (size_t jb = 0; jb < m; jb += kTileInner) {
    size_t jend = std::min(m, jb + kTileInner);
    for (size_t i = r0; i < r1; ++i) {
      const float* arow = a + i * m;
      float* crow = c + i * k;
      for (size_t j = jb; j < jend; ++j) {
        float av = arow[j];
        const float* brow = b + j * k;
        for (size_t t = 0; t < k; ++t) crow[t] += av * brow[t];
      }
    }
  }
}

// Identical to the seed MatMulTransA column-block body.
void ScalarGemmTransAPanelF32(const float* a, const float* b, float* c,
                              size_t c0, size_t c1, size_t m, size_t n,
                              size_t k) {
  for (size_t ib = 0; ib < m; ib += kTileInner) {
    size_t iend = std::min(m, ib + kTileInner);
    for (size_t i = ib; i < iend; ++i) {
      const float* arow = a + i * n;
      const float* brow = b + i * k;
      for (size_t j = c0; j < c1; ++j) {
        float av = arow[j];
        float* crow = c + j * k;
        for (size_t t = 0; t < k; ++t) crow[t] += av * brow[t];
      }
    }
  }
}

// Identical to the seed MatMulTransB row-block body (double-accum dots).
void ScalarGemmTransBPanelF32(const float* a, const float* b, float* c,
                              size_t r0, size_t r1, size_t m, size_t k) {
  for (size_t tb = 0; tb < k; tb += kTileInner) {
    size_t tend = std::min(k, tb + kTileInner);
    for (size_t i = r0; i < r1; ++i) {
      const float* arow = a + i * m;
      float* crow = c + i * k;
      for (size_t t = tb; t < tend; ++t) {
        const float* brow = b + t * m;
        double dot = 0.0;
        for (size_t j = 0; j < m; ++j) {
          dot += static_cast<double>(arow[j]) * brow[j];
        }
        crow[t] = static_cast<float>(dot);
      }
    }
  }
}

constexpr KernelOps kScalarOps = {
    "scalar",
    ScalarDotF32,
    ScalarDotF32D,
    ScalarSumF32,
    ScalarSumSqF32,
    ScalarSqDistF32,
    ScalarCosineF32,
    ScalarCosineF64,
    ScalarAxpyF32,
    ScalarScaleAddF32,
    ScalarScaleF32,
    ScalarMulF32,
    ScalarMulAddF32,
    ScalarClampF32,
    ScalarAdamUpdateF32,
    ScalarGemm8x8F32,
    ScalarGemmPanelF32,
    ScalarGemmTransAPanelF32,
    ScalarGemmTransBPanelF32,
    ScalarQuantizeI8F32,
    ScalarDequantizeI8F32,
    ScalarDotI8I32,
    ScalarSumI8I32,
    ScalarCosineI8,
    ScalarSqDistI8,
    ScalarF32ToBf16,
    ScalarBf16ToF32,
    ScalarDotBf16D,
    ScalarSqDistBf16,
};

// ---- Dispatch ---------------------------------------------------------

// The SIMD table is usable when compiled in AND the CPU reports both
// AVX2 and FMA (the kernels use fused multiply-adds).
const KernelOps* UsableSimdOps() {
  static const KernelOps* ops = [] {
    const KernelOps* avx2 = Avx2Ops();
    if (avx2 == nullptr) return static_cast<const KernelOps*>(nullptr);
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
      return static_cast<const KernelOps*>(nullptr);
    }
    return avx2;
  }();
  return ops;
}

bool EnvForcesScalar() {
  static const bool forced = EnvFlag("AUTODC_FORCE_SCALAR", false);
  return forced;
}

std::atomic<const KernelOps*>& ActiveOpsSlot() {
  static std::atomic<const KernelOps*> slot{nullptr};
  return slot;
}

const KernelOps* Active() {
  const KernelOps* ops = ActiveOpsSlot().load(std::memory_order_acquire);
  if (ops != nullptr) return ops;
  const KernelOps* resolved =
      EnvForcesScalar() ? &kScalarOps
                        : (UsableSimdOps() ? UsableSimdOps() : &kScalarOps);
  ActiveOpsSlot().store(resolved, std::memory_order_release);
  return resolved;
}

}  // namespace

bool SimdCompiledIn() { return Avx2Ops() != nullptr; }

bool SimdActive() { return Active() != &kScalarOps; }

void SetForceScalar(bool force) {
  const KernelOps* ops =
      force ? &kScalarOps : (UsableSimdOps() ? UsableSimdOps() : &kScalarOps);
  ActiveOpsSlot().store(ops, std::memory_order_release);
}

const char* ActiveIsaName() { return Active()->name; }


// Per-op dispatch counting for the obs layer: every public kernel entry
// bumps "kernels.<op>.scalar" or "kernels.<op>.simd", so one snapshot
// yields both the per-op call mix and the scalar-vs-AVX2 tally. The
// metric pointers are function-local statics — steady state is one
// predicted branch plus one relaxed fetch_add on a thread-private
// cache line.
#ifndef AUTODC_DISABLE_OBS
#define AUTODC_KERNEL_COUNT(op, ops)                                       \
  do {                                                                     \
    static obs::Counter* autodc_k_scalar =                                 \
        obs::MetricsRegistry::Global().GetCounter("kernels." #op           \
                                                  ".scalar");              \
    static obs::Counter* autodc_k_simd =                                   \
        obs::MetricsRegistry::Global().GetCounter("kernels." #op ".simd"); \
    ((ops) == &kScalarOps ? autodc_k_scalar : autodc_k_simd)->Inc();       \
  } while (0)
#else
#define AUTODC_KERNEL_COUNT(op, ops) ((void)0)
#endif

float DotF32(const float* a, const float* b, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(dot_f32, ops);
  return ops->dot_f32(a, b, n);
}
double DotF32D(const float* a, const float* b, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(dot_f32d, ops);
  return ops->dot_f32d(a, b, n);
}
double SumF32(const float* x, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(sum_f32, ops);
  return ops->sum_f32(x, n);
}
double SumSqF32(const float* x, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(sumsq_f32, ops);
  return ops->sumsq_f32(x, n);
}
double SqDistF32(const float* a, const float* b, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(sqdist_f32, ops);
  return ops->sqdist_f32(a, b, n);
}
double CosineF32(const float* a, const float* b, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(cosine_f32, ops);
  return ops->cosine_f32(a, b, n);
}
double CosineF64(const double* a, const double* b, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(cosine_f64, ops);
  return ops->cosine_f64(a, b, n);
}
void AxpyF32(float alpha, const float* x, float* y, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(axpy_f32, ops);
  ops->axpy_f32(alpha, x, y, n);
}
void ScaleAddF32(float alpha, const float* x, float beta, float* y, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(scale_add_f32, ops);
  ops->scale_add_f32(alpha, x, beta, y, n);
}
void ScaleF32(float s, float* y, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(scale_f32, ops);
  ops->scale_f32(s, y, n);
}
void MulF32(const float* x, float* y, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(mul_f32, ops);
  ops->mul_f32(x, y, n);
}
void MulAddF32(const float* a, const float* b, float* y, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(mul_add_f32, ops);
  ops->mul_add_f32(a, b, y, n);
}
void ClampF32(float lo, float hi, float* y, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(clamp_f32, ops);
  ops->clamp_f32(lo, hi, y, n);
}
void AdamUpdateF32(const float* g, float* m, float* v, float* p, size_t n,
                   float lr, float beta1, float beta2, float eps, float bc1,
                   float bc2) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(adam_update_f32, ops);
  ops->adam_update_f32(g, m, v, p, n, lr, beta1, beta2, eps, bc1, bc2);
}
void Gemm8x8F32(const float* a, size_t lda, const float* b, size_t ldb,
                float* c, size_t ldc, size_t kc) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(gemm8x8_f32, ops);
  ops->gemm8x8_f32(a, lda, b, ldb, c, ldc, kc);
}
void GemmPanelF32(const float* a, const float* b, float* c, size_t r0,
                  size_t r1, size_t m, size_t k) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(gemm_panel_f32, ops);
  ops->gemm_panel_f32(a, b, c, r0, r1, m, k);
}
void GemmTransAPanelF32(const float* a, const float* b, float* c, size_t c0,
                        size_t c1, size_t m, size_t n, size_t k) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(gemm_ta_panel_f32, ops);
  ops->gemm_ta_panel_f32(a, b, c, c0, c1, m, n, k);
}
void GemmTransBPanelF32(const float* a, const float* b, float* c, size_t r0,
                        size_t r1, size_t m, size_t k) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(gemm_tb_panel_f32, ops);
  ops->gemm_tb_panel_f32(a, b, c, r0, r1, m, k);
}

// ---- Low-precision public API -----------------------------------------

double DequantSqDistCombineD(double na, double nb, double dot) {
  // One compiled instance on purpose (see the header): this TU builds
  // without -mfma, so the subtractions can never contract with the
  // inlined dot product's final multiply, and both kernel paths get
  // the exact same last bit.
  return (na - dot) + (nb - dot);
}

Int8Params ComputeInt8Params(const float* x, size_t n, bool symmetric) {
  if (n == 0) return {1.0f, 0};
  float mn = x[0], mx = x[0];
  for (size_t i = 1; i < n; ++i) {
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
  if (symmetric) {
    float amax = std::max(std::fabs(mn), std::fabs(mx));
    if (!(amax > 0.0f)) return {1.0f, 0};
    return {amax / 127.0f, 0};
  }
  // Extend the range to include 0 so zero is exactly representable and
  // the zero-point derivation below stays within [-127, 127].
  mn = std::min(mn, 0.0f);
  mx = std::max(mx, 0.0f);
  if (!(mx - mn > 0.0f)) return {1.0f, 0};
  float scale = (mx - mn) / 254.0f;
  std::int32_t zp = static_cast<std::int32_t>(
      std::nearbyintf(-127.0f - mn / scale));
  return {scale, std::clamp(zp, -127, 127)};
}

void QuantizeI8F32(const float* x, size_t n, Int8Params params,
                   std::int8_t* q) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(quantize_i8, ops);
  ops->quantize_i8(x, n, params, q);
}
void DequantizeI8F32(const std::int8_t* q, size_t n, Int8Params params,
                     float* x) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(dequantize_i8, ops);
  ops->dequantize_i8(q, n, params, x);
}
std::int32_t DotI8I32(const std::int8_t* a, const std::int8_t* b, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(dot_i8_i32, ops);
  return ops->dot_i8_i32(a, b, n);
}
std::int32_t SumI8I32(const std::int8_t* x, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(sum_i8_i32, ops);
  return ops->sum_i8_i32(x, n);
}
double CosineI8(const std::int8_t* a, Int8Params pa, const std::int8_t* b,
                Int8Params pb, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(cosine_i8, ops);
  return ops->cosine_i8(a, pa, b, pb, n);
}
double SqDistI8(const std::int8_t* a, Int8Params pa, const std::int8_t* b,
                Int8Params pb, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(sqdist_i8, ops);
  return ops->sqdist_i8(a, pa, b, pb, n);
}
void F32ToBf16(const float* x, size_t n, std::uint16_t* y) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(f32_to_bf16, ops);
  ops->f32_to_bf16(x, n, y);
}
void Bf16ToF32(const std::uint16_t* x, size_t n, float* y) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(bf16_to_f32, ops);
  ops->bf16_to_f32(x, n, y);
}
double DotBf16D(const std::uint16_t* a, const std::uint16_t* b, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(dot_bf16d, ops);
  return ops->dot_bf16d(a, b, n);
}
double SqDistBf16(const std::uint16_t* a, const std::uint16_t* b, size_t n) {
  const KernelOps* ops = Active();
  AUTODC_KERNEL_COUNT(sqdist_bf16, ops);
  return ops->sqdist_bf16(a, b, n);
}

}  // namespace autodc::nn::kernels
