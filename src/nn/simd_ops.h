#ifndef QPE_NN_SIMD_OPS_H_
#define QPE_NN_SIMD_OPS_H_

// Vector-ops policies the shared kernel bodies (simd_kernels_inl.h) are
// instantiated with: lane count, load/store/broadcast, mul/add/sub/div,
// max, sqrt and exp. ScalarOps is always available; Avx2Ops and NeonOps
// exist only in translation units compiled for that instruction set
// (simd_avx2.cc with -mavx2, simd_neon.cc on aarch64), so including this
// header elsewhere never emits vendor intrinsics. A TU that includes it
// must not let the compiler contract mul+add into FMA (the vector TUs
// build with -ffp-contract=off; see simd_kernels_inl.h).

#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace qpe::nn::simd {

// Width-1 "vector" policy: instantiating the shared kernel bodies with it
// reproduces the pre-SIMD scalar loops statement for statement, so the
// scalar table is the bit-exactness reference for every other level.
struct ScalarOps {
  static constexpr int kLanes = 1;
  using Vec = float;
  static Vec Load(const float* p) { return *p; }
  static void Store(float* p, Vec v) { *p = v; }
  static Vec Broadcast(float x) { return x; }
  static Vec Add(Vec a, Vec b) { return a + b; }
  static Vec Sub(Vec a, Vec b) { return a - b; }
  static Vec Mul(Vec a, Vec b) { return a * b; }
  static Vec Div(Vec a, Vec b) { return a / b; }
  static Vec Max(Vec a, Vec b) { return a < b ? b : a; }
  static Vec Sqrt(Vec v) { return std::sqrt(v); }
  static float HMax(Vec v) { return v; }
  // std::exp, not a polynomial: the scalar table is the seed-bit-exact
  // reference, so its exp must be the libm call the pre-SIMD code made.
  static Vec Exp(Vec v) { return std::exp(v); }
};

#if defined(__AVX2__)
struct Avx2Ops {
  static constexpr int kLanes = 8;
  using Vec = __m256;
  static Vec Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static Vec Broadcast(float x) { return _mm256_set1_ps(x); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm256_div_ps(a, b); }
  // max(a, b) with b preferred on unordered — matches std::max's
  // (a < b ? b : a) selection exactly on the finite inputs the kernels see.
  static Vec Max(Vec a, Vec b) { return _mm256_max_ps(b, a); }
  // Correctly rounded per IEEE 754, same bits as scalar sqrtf per lane.
  static Vec Sqrt(Vec v) { return _mm256_sqrt_ps(v); }
  // All-ones mask where v > 0 (quiet compare: NaN lanes gate off), and a
  // bitwise AND — the pair turns BiasActBackwardT's branch into a mask.
  static Vec GtZero(Vec v) {
    return _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
  }
  static Vec And(Vec a, Vec b) { return _mm256_and_ps(a, b); }
  static float HMax(Vec v) {
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 m = _mm_max_ps(lo, hi);
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    return _mm_cvtss_f32(m);
  }
  // 8-lane expf: Cephes-style range reduction (x = n*ln2 + r, ln2 split
  // into a high part and a correction so r stays accurate) and a degree-5
  // polynomial on r, then scale by 2^n via exponent-field arithmetic.
  // Max error ~2 ulp against libm expf — this is the one kernel op allowed
  // to diverge from the scalar reference (epsilon contract, see
  // simd_kernels_inl.h); vectorizing exp is where the attention-softmax
  // speedup comes from. Inputs are clamped to the finite float range of
  // expf, so softmax's x - max <= 0 arguments never overflow and deeply
  // negative scores saturate to a denormal instead of 0 (harmless: they
  // vanish in the normalizing division).
  static Vec Exp(Vec x) {
    x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-87.3365478515625f)),
                      _mm256_set1_ps(88.3762626647949f));
    const Vec n = _mm256_round_ps(
        _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    Vec r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(0.693359375f)));
    r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(-2.12194440e-4f)));
    Vec p = _mm256_set1_ps(1.9875691500e-4f);
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.3981999507e-3f));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(8.3334519073e-3f));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(4.1665795894e-2f));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.6666665459e-1f));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(5.0000001201e-1f));
    p = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, r), r),
                      _mm256_add_ps(r, _mm256_set1_ps(1.0f)));
    const __m256i pow2 = _mm256_slli_epi32(
        _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
    return _mm256_mul_ps(p, _mm256_castsi256_ps(pow2));
  }
};
#endif  // __AVX2__

#if defined(__aarch64__) && defined(__ARM_NEON)
struct NeonOps {
  static constexpr int kLanes = 4;
  using Vec = float32x4_t;
  static Vec Load(const float* p) { return vld1q_f32(p); }
  static void Store(float* p, Vec v) { vst1q_f32(p, v); }
  static Vec Broadcast(float x) { return vdupq_n_f32(x); }
  static Vec Add(Vec a, Vec b) { return vaddq_f32(a, b); }
  static Vec Sub(Vec a, Vec b) { return vsubq_f32(a, b); }
  static Vec Mul(Vec a, Vec b) { return vmulq_f32(a, b); }
  static Vec Div(Vec a, Vec b) { return vdivq_f32(a, b); }
  static Vec Max(Vec a, Vec b) { return vmaxq_f32(a, b); }
  // Correctly rounded per IEEE 754, same bits as scalar sqrtf per lane.
  static Vec Sqrt(Vec v) { return vsqrtq_f32(v); }
  static float HMax(Vec v) { return vmaxvq_f32(v); }
  // All-ones mask where v > 0 (NaN lanes gate off), and a bitwise AND —
  // the pair turns BiasActBackwardT's branch into a mask.
  static Vec GtZero(Vec v) {
    return vreinterpretq_f32_u32(vcgtq_f32(v, vdupq_n_f32(0.0f)));
  }
  static Vec And(Vec a, Vec b) {
    return vreinterpretq_f32_u32(
        vandq_u32(vreinterpretq_u32_f32(a), vreinterpretq_u32_f32(b)));
  }
  // 4-lane expf, same Cephes-style reduction + degree-5 polynomial as the
  // AVX2 table (~2 ulp). Allowed to diverge from the scalar std::exp
  // reference under the epsilon contract; see simd_kernels_inl.h.
  static Vec Exp(Vec x) {
    x = vminq_f32(vmaxq_f32(x, vdupq_n_f32(-87.3365478515625f)),
                  vdupq_n_f32(88.3762626647949f));
    const Vec n = vrndnq_f32(vmulq_f32(x, vdupq_n_f32(1.44269504088896341f)));
    Vec r = vsubq_f32(x, vmulq_f32(n, vdupq_n_f32(0.693359375f)));
    r = vsubq_f32(r, vmulq_f32(n, vdupq_n_f32(-2.12194440e-4f)));
    Vec p = vdupq_n_f32(1.9875691500e-4f);
    p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(1.3981999507e-3f));
    p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(8.3334519073e-3f));
    p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(4.1665795894e-2f));
    p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(1.6666665459e-1f));
    p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(5.0000001201e-1f));
    p = vaddq_f32(vmulq_f32(vmulq_f32(p, r), r),
                  vaddq_f32(r, vdupq_n_f32(1.0f)));
    const int32x4_t pow2 =
        vshlq_n_s32(vaddq_s32(vcvtnq_s32_f32(n), vdupq_n_s32(127)), 23);
    return vmulq_f32(p, vreinterpretq_f32_s32(pow2));
  }
};
#endif  // __aarch64__ && __ARM_NEON

}  // namespace qpe::nn::simd

#endif  // QPE_NN_SIMD_OPS_H_
