// AVX2 kernel table. Compiled only on x86-64, with -mavx2 (and
// -ffp-contract=off so the compiler cannot contract the explicit
// mul+add pairs into FMA — contraction would break the bit-exactness of
// the vector lanes against the scalar reference). The functions are only
// ever called through the dispatch table after __builtin_cpu_supports
// confirmed AVX2 at runtime, so this TU's codegen never executes on a
// pre-AVX2 machine.

#if defined(QPE_HAVE_AVX2)

#include "nn/simd.h"
#include "nn/simd_kernels_inl.h"
#include "nn/simd_ops.h"

namespace qpe::nn::simd {

namespace {

void Avx2MatMulForwardRange(const float* a, const float* b, float* out, int i0,
                            int i1, int k, int n) {
  MatMulForwardRangeT<Avx2Ops>(a, b, out, i0, i1, k, n);
}

void Avx2BiasRelu(const float* a, const float* bias, float* out, int m,
                  int n) {
  BiasReluT<Avx2Ops>(a, bias, out, m, n);
}

void Avx2LayerNormRows(const float* x, const float* gamma, const float* beta,
                       float* out, int m, int n, float invn) {
  LayerNormRowsT<Avx2Ops>(x, gamma, beta, out, m, n, invn);
}

void Avx2SoftmaxRowsMasked(const float* a, float* out, const int* valid,
                           int m, int n) {
  SoftmaxRowsMaskedT<Avx2Ops>(a, out, valid, m, n);
}

void Avx2AttentionForwardPacked(const float* q, const float* k, const float* v,
                                float* out, const int* offsets,
                                const int* lengths, int num_seqs, int num_heads,
                                int dim, float scale, float* probs_out) {
  AttentionForwardPackedT<Avx2Ops>(q, k, v, out, offsets, lengths, num_seqs,
                                   num_heads, dim, scale, probs_out);
}

void Avx2EmbedGatherAdd(const float* e1, const float* e2, const float* e3,
                        const float* pos, const int* ids1, const int* ids2,
                        const int* ids3, const int* positions, float* out,
                        int rows, int d1, int d2, int d3) {
  EmbedGatherAddT<Avx2Ops>(e1, e2, e3, pos, ids1, ids2, ids3, positions, out,
                           rows, d1, d2, d3);
}

void Avx2AttentionForwardBlocked(const float* q, const float* kbt,
                                 const float* vb, float* out,
                                 const int* offsets, const int* lengths,
                                 int num_seqs, int num_heads, int total_rows,
                                 int dim, float scale, float* probs,
                                 int keep_probs) {
  AttentionForwardBlockedT<Avx2Ops>(q, kbt, vb, out, offsets, lengths, num_seqs,
                                    num_heads, total_rows, dim, scale, probs,
                                    keep_probs);
}

// Packed-tile int8 GEMM. The tile layout (kInt8TileN = 4 channels x
// kInt8TileK = 16 k-steps, pre-sign-extended to int16 — see
// PackInt8WeightTiles) lets one sign-extended activation vector feed four
// madd_epi16 against four direct 256-bit weight loads — versus one madd
// plus a full horizontal sum per (i, j) on a channel-contiguous layout, and
// with no cvtepi8_epi16 on the weight side at all (the widening happened once
// at pack time; inline it was 4 of the 5 shuffles per k-block and capped
// the kernel at roughly fp32 speed). The four int32 accumulators are
// folded with two hadds at tile end, amortizing the horizontal reduction
// across four output channels, and every weight byte is a sequential
// read. Integer accumulation is exact in any order, so the result is
// bit-identical to Int8GemmPackedRef.
void Avx2Int8GemmPacked(const int8_t* a, const int16_t* bp, float* c, int m,
                        int k, int n, const float* a_scale,
                        const float* b_scale, const float* bias) {
  const int kp = Int8PackedKPad(k);
  const int kb = kp / kInt8TileK;
  const int tiles = (n + kInt8TileN - 1) / kInt8TileN;
  for (int i = 0; i < m; ++i) {
    const int8_t* arow = a + static_cast<size_t>(i) * kp;
    float* crow = c + static_cast<size_t>(i) * n;
    const float as = a_scale[i];
    for (int t = 0; t < tiles; ++t) {
      const int16_t* btile =
          bp + static_cast<size_t>(t) * kb * (kInt8TileN * kInt8TileK);
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      for (int b = 0; b < kb; ++b) {
        const __m256i a16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(arow + b * kInt8TileK)));
        const int16_t* bb =
            btile + static_cast<size_t>(b) * (kInt8TileN * kInt8TileK);
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(a16, _mm256_loadu_si256(
                                             reinterpret_cast<const __m256i*>(
                                                 bb))));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(a16, _mm256_loadu_si256(
                                             reinterpret_cast<const __m256i*>(
                                                 bb + kInt8TileK))));
        acc2 = _mm256_add_epi32(
            acc2, _mm256_madd_epi16(a16, _mm256_loadu_si256(
                                             reinterpret_cast<const __m256i*>(
                                                 bb + 2 * kInt8TileK))));
        acc3 = _mm256_add_epi32(
            acc3, _mm256_madd_epi16(a16, _mm256_loadu_si256(
                                             reinterpret_cast<const __m256i*>(
                                                 bb + 3 * kInt8TileK))));
      }
      // hadd twice folds the four 8-lane accumulators into one vector of
      // [sum0, sum1, sum2, sum3] per 128-bit half; adding the halves gives
      // the four channel totals.
      const __m256i t0 = _mm256_hadd_epi32(acc0, acc1);
      const __m256i t1 = _mm256_hadd_epi32(acc2, acc3);
      const __m256i t2 = _mm256_hadd_epi32(t0, t1);
      const __m128i sums = _mm_add_epi32(_mm256_castsi256_si128(t2),
                                         _mm256_extracti128_si256(t2, 1));
      const int j0 = t * kInt8TileN;
      if (n - j0 >= kInt8TileN) {
        // Full tile: dequantize all four channels at once. Identical IEEE
        // ops per lane — int32->float convert, then (total * as) *
        // b_scale[j] + bias[j] in the scalar epilogue's order — so the
        // bits match the scalar tail exactly.
        __m128 y = _mm_mul_ps(_mm_mul_ps(_mm_cvtepi32_ps(sums),
                                         _mm_set1_ps(as)),
                              _mm_loadu_ps(b_scale + j0));
        if (bias != nullptr) y = _mm_add_ps(y, _mm_loadu_ps(bias + j0));
        _mm_storeu_ps(crow + j0, y);
      } else {
        alignas(16) int32_t acc[kInt8TileN];
        _mm_store_si128(reinterpret_cast<__m128i*>(acc), sums);
        const int jmax = n - j0;
        for (int ch = 0; ch < jmax; ++ch) {
          const int j = j0 + ch;
          float y = static_cast<float>(acc[ch]) * as * b_scale[j];
          if (bias != nullptr) y += bias[j];
          crow[j] = y;
        }
      }
    }
  }
}

// 8-lane quantize: the exact trunc(t + copysign(0.5, t)) sequence of
// QuantizeOneRef, every step an exact IEEE op, so each lane produces the
// same int8 the scalar reference does.
void Avx2QuantizeBuffer(const float* x, int n, float inv_scale, int8_t* out) {
  const __m256 vs = _mm256_set1_ps(inv_scale);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(x + i), vs);
    const __m256 h = _mm256_or_ps(_mm256_and_ps(t, sign), half);
    __m256 r = _mm256_round_ps(_mm256_add_ps(t, h),
                               _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    r = _mm256_max_ps(_mm256_min_ps(r, hi), lo);
    const __m256i q32 = _mm256_cvtps_epi32(r);
    const __m128i q16 = _mm_packs_epi32(_mm256_castsi256_si128(q32),
                                        _mm256_extracti128_si256(q32, 1));
    const __m128i q8 = _mm_packs_epi16(q16, q16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), q8);
  }
  for (; i < n; ++i) out[i] = QuantizeOneRef(x[i], inv_scale);
}

void Avx2LinearBiasAct(const float* a, const float* b, const float* bias,
                       float* out, int m, int k, int n, int relu) {
  LinearBiasActT<Avx2Ops>(a, b, bias, out, m, k, n, relu);
}

void Avx2AddRows(float* dst, const float* src, size_t n) {
  AddRowsT<Avx2Ops>(dst, src, n);
}

void Avx2MatMulBackwardA(const float* og, const float* bv, float* ag, int i0,
                         int i1, int k, int n) {
  MatMulBackwardAT<Avx2Ops>(og, bv, ag, i0, i1, k, n);
}

void Avx2MatMulBackwardB(const float* av, const float* og, float* bg, int p0,
                         int p1, int m, int k, int n) {
  MatMulBackwardBT<Avx2Ops>(av, og, bg, p0, p1, m, k, n);
}

void Avx2BiasActBackward(const float* ov, const float* og, float* ag,
                         float* bg, int m, int n) {
  BiasActBackwardT<Avx2Ops>(ov, og, ag, bg, m, n);
}

void Avx2LayerNormRowsBackward(const float* xv, const float* gv,
                               const float* og, float* xg, float* gg,
                               float* bg, int m, int n, float invn) {
  LayerNormRowsBackwardT<Avx2Ops>(xv, gv, og, xg, gg, bg, m, n, invn);
}

void Avx2SoftmaxRowsMaskedBackward(const float* yv, const float* gy,
                                   float* gx, const int* valid, int m, int n) {
  SoftmaxRowsMaskedBackwardT<Avx2Ops>(yv, gy, gx, valid, m, n);
}

void Avx2AttentionBackwardPacked(const float* qv, const float* kv,
                                 const float* vv, const float* og,
                                 const float* probs, float* qg, float* kg,
                                 float* vg, const int* offsets,
                                 const int* lengths, int num_seqs,
                                 int num_heads, int dim, float scale) {
  AttentionBackwardPackedT<Avx2Ops>(qv, kv, vv, og, probs, qg, kg, vg, offsets,
                                    lengths, num_seqs, num_heads, dim, scale);
}

void Avx2AdamStep(float* value, const float* grad, float* m, float* v,
                  size_t n, float lr, float beta1, float beta2, float eps,
                  float bias1, float bias2, float weight_decay) {
  AdamStepT<Avx2Ops>(value, grad, m, v, n, lr, beta1, beta2, eps, bias1,
                     bias2, weight_decay);
}

const Kernels kAvx2Table = {
    Level::kAvx2,
    "avx2",
    &Avx2MatMulForwardRange,
    &Avx2BiasRelu,
    &Avx2LayerNormRows,
    &Avx2SoftmaxRowsMasked,
    &Avx2AttentionForwardPacked,
    &Avx2EmbedGatherAdd,
    &Avx2AttentionForwardBlocked,
    &Avx2Int8GemmPacked,
    &Avx2QuantizeBuffer,
    &Avx2LinearBiasAct,
    &Avx2AddRows,
    &Avx2MatMulBackwardA,
    &Avx2MatMulBackwardB,
    &Avx2BiasActBackward,
    &Avx2LayerNormRowsBackward,
    &Avx2SoftmaxRowsMaskedBackward,
    &Avx2AttentionBackwardPacked,
    &Avx2AdamStep,
};

}  // namespace

const Kernels* GetAvx2Kernels() { return &kAvx2Table; }

}  // namespace qpe::nn::simd

#endif  // QPE_HAVE_AVX2
