#ifndef AUTODC_NN_KERNELS_H_
#define AUTODC_NN_KERNELS_H_

#include <cstddef>
#include <cstdint>

// SIMD micro-kernel layer: the single place where per-core throughput is
// earned. Every dense inner loop in the library (tensor ops, autograd,
// SGNS gradient steps, cosine nearest-neighbour search, DeepER pair
// scoring) routes through these primitives.
//
// Dispatch rules (see DESIGN.md "Kernel layer"):
//   * Two implementations exist per kernel: a portable scalar path
//     (kernels.cc) and an AVX2+FMA path (kernels_avx2.cc, compiled with
//     -mavx2 -mfma when the toolchain supports it; selected at compile
//     time via __AVX2__).
//   * At runtime the AVX2 table is active iff it was compiled in, the
//     CPU reports AVX2+FMA support, and scalar mode is not forced.
//     Scalar mode is forced by the AUTODC_FORCE_SCALAR environment
//     variable (any value other than "0") or programmatically via
//     SetForceScalar() — the A/B switch used by bench_kernels and the
//     agreement tests.
//   * Tolerance policy: the scalar path is operation-for-operation
//     identical to the pre-kernel (seed) loops, so determinism-sensitive
//     golden tests pin it via SetForceScalar(true). The SIMD path uses
//     FMA and lane-parallel accumulators, so its results differ from
//     scalar in the last bits; the two paths agree within 1e-5
//     (relative, with an absolute floor of 1e-5 for near-zero values).
//     Each path on its own is deterministic: results depend only on the
//     inputs, never on thread count or scheduling.
namespace autodc::nn::kernels {

// ---- Dispatch control -------------------------------------------------

/// True when the AVX2+FMA kernel table was compiled into this binary.
bool SimdCompiledIn();

/// True when the AVX2+FMA table is currently active (compiled in, CPU
/// supports it, and scalar mode is not forced).
bool SimdActive();

/// Forces (or releases) the scalar table. Overrides the
/// AUTODC_FORCE_SCALAR environment default; releasing restores SIMD when
/// available. Thread-safe; intended for benches and agreement tests.
void SetForceScalar(bool force);

/// "avx2+fma" or "scalar".
const char* ActiveIsaName();

// ---- Level-1 kernels --------------------------------------------------
// All kernels accept n == 0 (no-op / zero result). Pointers may not
// alias unless noted.

/// Dot product, float accumulation (matches the seed SGNS inner loop in
/// scalar mode).
float DotF32(const float* a, const float* b, size_t n);

/// Dot product, double accumulation (matches the seed MatMulTransB /
/// cosine loops in scalar mode).
double DotF32D(const float* a, const float* b, size_t n);

/// Sum of elements, double accumulation.
double SumF32(const float* x, size_t n);

/// Sum of squares, double accumulation.
double SumSqF32(const float* x, size_t n);

/// Squared Euclidean distance, double accumulation.
double SqDistF32(const float* a, const float* b, size_t n);

/// Cosine similarity; 0.0 when either vector has zero (or negative —
/// impossible) squared norm or n == 0. One fused pass over both inputs.
double CosineF32(const float* a, const float* b, size_t n);
double CosineF64(const double* a, const double* b, size_t n);

/// y += alpha * x
void AxpyF32(float alpha, const float* x, float* y, size_t n);

/// y = alpha * x + beta * y
void ScaleAddF32(float alpha, const float* x, float beta, float* y, size_t n);

/// y *= s
void ScaleF32(float s, float* y, size_t n);

/// y *= x  (elementwise)
void MulF32(const float* x, float* y, size_t n);

/// y += a * b  (elementwise fused multiply-accumulate)
void MulAddF32(const float* a, const float* b, float* y, size_t n);

/// y = clamp(y, lo, hi)
void ClampF32(float lo, float hi, float* y, size_t n);

/// One fused Adam step over a parameter slab:
///   m = beta1*m + (1-beta1)*g
///   v = beta2*v + (1-beta2)*g^2
///   p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
/// bc1/bc2 are the bias-correction denominators for the current step.
void AdamUpdateF32(const float* g, float* m, float* v, float* p, size_t n,
                   float lr, float beta1, float beta2, float eps, float bc1,
                   float bc2);

// ---- Level-3 kernels --------------------------------------------------

/// The 8x8 FMA micro-kernel: C[8x8] += A[8 x kc] * B[kc x 8] with row
/// strides lda/ldb/ldc. The AVX2 path holds the 8x8 C block in eight ymm
/// accumulators and issues eight FMAs per loaded B row. Exposed for
/// tests/benches; the Gemm*Panel kernels below use it internally.
void Gemm8x8F32(const float* a, size_t lda, const float* b, size_t ldb,
                float* c, size_t ldc, size_t kc);

/// C rows [r0,r1) += A[r0:r1, 0:m] * B[m x k]  (A row stride m, B/C row
/// stride k). Per output element the accumulation over the inner
/// dimension runs in ascending order on both paths, so results are
/// independent of the caller's row chunking (and hence of thread count).
void GemmPanelF32(const float* a, const float* b, float* c, size_t r0,
                  size_t r1, size_t m, size_t k);

/// C rows [c0,c1) += A^T[c0:c1, 0:m] * B[m x k] for A {m,n} (row stride
/// n), B {m,k}, C {n,k}.
void GemmTransAPanelF32(const float* a, const float* b, float* c, size_t c0,
                        size_t c1, size_t m, size_t n, size_t k);

/// C rows [r0,r1) = A[r0:r1, 0:m] * B^T for A {n,m}, B {k,m}, C {n,k}.
/// Assigns (does not accumulate into) the output rows.
void GemmTransBPanelF32(const float* a, const float* b, float* c, size_t r0,
                        size_t r1, size_t m, size_t k);

// ---- Low-precision kernels -------------------------------------------
// Quantized row formats used by the ANN index's graph storage (see
// DESIGN.md §11). Two storage modes exist below fp32:
//
//   * int8: per-row affine quantization q = clamp(round(x/scale) + zp)
//     with q restricted to [-127, 127]. The +-127 (not -128) bound is a
//     hard invariant: it keeps |q_a * q_b| <= 127*127, so the AVX2
//     maddubs i16 pair-sums (<= 32258) cannot saturate and the integer
//     dot is EXACT — the scalar and AVX2 paths agree bit-for-bit, unlike
//     the float kernels' 1e-5 tolerance. The symmetric option pins
//     zp = 0 (scale = absmax/127).
//   * bf16: the top 16 bits of the f32 pattern, rounded to
//     nearest-even. Conversion back is exact (<<16), so bf16 dots are
//     ordinary float math on rounded inputs and follow the normal
//     cross-path tolerance policy.
//
// Integer-dot length limit: the i32 accumulator is exact for
// n <= ~1M elements at |q| <= 127; every caller here is a row dot
// (n = embedding dim), far below that.

/// Storage precision of a quantized row.
enum class Quant : std::uint8_t {
  kFp32 = 0,   // no quantization (the default)
  kInt8 = 1,   // per-row scale + zero-point, q in [-127, 127]
  kInt8Sym = 2,  // per-row scale only (zero-point pinned to 0)
  kBf16 = 3,   // round-to-nearest-even bfloat16
};

/// Per-row affine parameters: x ~= scale * (q - zero_point).
struct Int8Params {
  float scale = 1.0f;
  std::int32_t zero_point = 0;
};

/// Derives quantization parameters for one row. Asymmetric mode extends
/// the [min, max] range to include 0 so zero is exactly representable
/// and |zero_point| <= 127. Degenerate rows (all zeros, n == 0) get
/// {1, 0} so every element quantizes to 0 exactly.
Int8Params ComputeInt8Params(const float* x, size_t n, bool symmetric);

/// Dequantized dot product from an exact integer dot plus the cached
/// per-row element sums:
///   dot = s_a*s_b * (idot - zp_a*sum_b - zp_b*sum_a + n*zp_a*zp_b)
/// Inline and shared by the scalar and AVX2 tables (and by ANN/store
/// callers with cached sums) so every path combines identically.
inline double DequantDotD(std::int32_t idot, Int8Params pa, std::int32_t sum_a,
                          Int8Params pb, std::int32_t sum_b, size_t n) {
  std::int64_t corr = static_cast<std::int64_t>(idot) -
                      static_cast<std::int64_t>(pa.zero_point) * sum_b -
                      static_cast<std::int64_t>(pb.zero_point) * sum_a +
                      static_cast<std::int64_t>(n) * pa.zero_point *
                          pb.zero_point;
  return static_cast<double>(pa.scale) * static_cast<double>(pb.scale) *
         static_cast<double>(corr);
}

/// Dequantized squared norm from the cached integer moments:
///   |x|^2 = s^2 * (sumsq - 2*zp*sum + n*zp^2)
inline double DequantNormSqD(std::int64_t sumsq, Int8Params p,
                             std::int32_t sum, size_t n) {
  std::int64_t corr = sumsq -
                      2 * static_cast<std::int64_t>(p.zero_point) * sum +
                      static_cast<std::int64_t>(n) * p.zero_point *
                          p.zero_point;
  return static_cast<double>(p.scale) * static_cast<double>(p.scale) *
         static_cast<double>(corr);
}

/// q[i] = clamp(round(x[i] * (1/params.scale)) + zp, -127, 127).
/// Round-to-nearest-even on both paths (nearbyintf / cvtps_epi32 under
/// the default FP environment), with the reciprocal precomputed
/// identically, so scalar and AVX2 outputs are bit-identical.
void QuantizeI8F32(const float* x, size_t n, Int8Params params,
                   std::int8_t* q);

/// x[i] = params.scale * (q[i] - params.zero_point). Bit-identical
/// across paths (single f32 multiply per element).
void DequantizeI8F32(const std::int8_t* q, size_t n, Int8Params params,
                     float* x);

/// Exact i32 dot of two int8 rows. Precondition: elements in
/// [-127, 127] (the quantizer's invariant); the AVX2 maddubs path would
/// saturate at -128*-128 pairs otherwise. Scalar/AVX2 bit-identical.
std::int32_t DotI8I32(const std::int8_t* a, const std::int8_t* b, size_t n);

/// Exact i32 element sum of an int8 row (the cached `sum` used by the
/// zero-point correction). Scalar/AVX2 bit-identical.
std::int32_t SumI8I32(const std::int8_t* x, size_t n);

/// Cosine similarity of two quantized rows, computed from one fused
/// integer pass (dot, sums, sums of squares) + the shared dequant
/// algebra. 0.0 when either dequantized norm is zero. Scalar/AVX2
/// bit-identical (all integer sums are exact).
double CosineI8(const std::int8_t* a, Int8Params pa, const std::int8_t* b,
                Int8Params pb, size_t n);

/// Squared Euclidean distance between the dequantized rows, same fused
/// integer pass: |a|^2 + |b|^2 - 2*dot. Scalar/AVX2 bit-identical.
double SqDistI8(const std::int8_t* a, Int8Params pa, const std::int8_t* b,
                Int8Params pb, size_t n);

/// (na - dot) + (nb - dot), deliberately OUT of line: inlined into the
/// AVX2 translation unit, the subtractions contract with the dot
/// product's final multiply into FMAs, silently breaking SqDistI8's
/// bit-identical cross-path contract. One definition in the scalar TU
/// keeps both paths combining with the same instructions.
double DequantSqDistCombineD(double na, double nb, double dot);

/// f32 -> bf16 round-to-nearest-even (integer bit math; bit-identical
/// across paths). NaNs keep a NaN pattern.
void F32ToBf16(const float* x, size_t n, std::uint16_t* y);

/// bf16 -> f32, exact (<<16). Bit-identical across paths.
void Bf16ToF32(const std::uint16_t* x, size_t n, float* y);

/// Dot of two bf16 rows, double accumulation (mirrors DotF32D on the
/// widened values; normal 1e-5 cross-path tolerance).
double DotBf16D(const std::uint16_t* a, const std::uint16_t* b, size_t n);

/// Squared Euclidean distance of two bf16 rows, double accumulation.
double SqDistBf16(const std::uint16_t* a, const std::uint16_t* b, size_t n);

// ---- Implementation plumbing -----------------------------------------

/// Function table one ISA implements. Internal; exposed so the scalar
/// and AVX2 translation units can share the definition.
struct KernelOps {
  const char* name;
  float (*dot_f32)(const float*, const float*, size_t);
  double (*dot_f32d)(const float*, const float*, size_t);
  double (*sum_f32)(const float*, size_t);
  double (*sumsq_f32)(const float*, size_t);
  double (*sqdist_f32)(const float*, const float*, size_t);
  double (*cosine_f32)(const float*, const float*, size_t);
  double (*cosine_f64)(const double*, const double*, size_t);
  void (*axpy_f32)(float, const float*, float*, size_t);
  void (*scale_add_f32)(float, const float*, float, float*, size_t);
  void (*scale_f32)(float, float*, size_t);
  void (*mul_f32)(const float*, float*, size_t);
  void (*mul_add_f32)(const float*, const float*, float*, size_t);
  void (*clamp_f32)(float, float, float*, size_t);
  void (*adam_update_f32)(const float*, float*, float*, float*, size_t, float,
                          float, float, float, float, float);
  void (*gemm8x8_f32)(const float*, size_t, const float*, size_t, float*,
                      size_t, size_t);
  void (*gemm_panel_f32)(const float*, const float*, float*, size_t, size_t,
                         size_t, size_t);
  void (*gemm_ta_panel_f32)(const float*, const float*, float*, size_t,
                            size_t, size_t, size_t, size_t);
  void (*gemm_tb_panel_f32)(const float*, const float*, float*, size_t,
                            size_t, size_t, size_t);
  void (*quantize_i8)(const float*, size_t, Int8Params, std::int8_t*);
  void (*dequantize_i8)(const std::int8_t*, size_t, Int8Params, float*);
  std::int32_t (*dot_i8_i32)(const std::int8_t*, const std::int8_t*, size_t);
  std::int32_t (*sum_i8_i32)(const std::int8_t*, size_t);
  double (*cosine_i8)(const std::int8_t*, Int8Params, const std::int8_t*,
                      Int8Params, size_t);
  double (*sqdist_i8)(const std::int8_t*, Int8Params, const std::int8_t*,
                      Int8Params, size_t);
  void (*f32_to_bf16)(const float*, size_t, std::uint16_t*);
  void (*bf16_to_f32)(const std::uint16_t*, size_t, float*);
  double (*dot_bf16d)(const std::uint16_t*, const std::uint16_t*, size_t);
  double (*sqdist_bf16)(const std::uint16_t*, const std::uint16_t*, size_t);
};

/// AVX2+FMA table, or nullptr when not compiled in. Defined in
/// kernels_avx2.cc.
const KernelOps* Avx2Ops();

}  // namespace autodc::nn::kernels

#endif  // AUTODC_NN_KERNELS_H_
