// NEON (AdvSIMD) kernel table, compiled only on aarch64. The TU is built
// with -ffp-contract=off and uses explicit vmulq/vaddq pairs — never
// vmlaq/vfmaq — so the vector lanes stay bit-identical to the scalar
// reference kernels.

#if defined(QPE_HAVE_NEON)

#include "nn/simd.h"
#include "nn/simd_kernels_inl.h"
#include "nn/simd_ops.h"

namespace qpe::nn::simd {

namespace {

void NeonMatMulForwardRange(const float* a, const float* b, float* out, int i0,
                            int i1, int k, int n) {
  MatMulForwardRangeT<NeonOps>(a, b, out, i0, i1, k, n);
}

void NeonBiasRelu(const float* a, const float* bias, float* out, int m,
                  int n) {
  BiasReluT<NeonOps>(a, bias, out, m, n);
}

void NeonLayerNormRows(const float* x, const float* gamma, const float* beta,
                       float* out, int m, int n, float invn) {
  LayerNormRowsT<NeonOps>(x, gamma, beta, out, m, n, invn);
}

void NeonSoftmaxRowsMasked(const float* a, float* out, const int* valid,
                           int m, int n) {
  SoftmaxRowsMaskedT<NeonOps>(a, out, valid, m, n);
}

void NeonAttentionForwardPacked(const float* q, const float* k, const float* v,
                                float* out, const int* offsets,
                                const int* lengths, int num_seqs, int num_heads,
                                int dim, float scale, float* probs_out) {
  AttentionForwardPackedT<NeonOps>(q, k, v, out, offsets, lengths, num_seqs,
                                   num_heads, dim, scale, probs_out);
}

void NeonEmbedGatherAdd(const float* e1, const float* e2, const float* e3,
                        const float* pos, const int* ids1, const int* ids2,
                        const int* ids3, const int* positions, float* out,
                        int rows, int d1, int d2, int d3) {
  EmbedGatherAddT<NeonOps>(e1, e2, e3, pos, ids1, ids2, ids3, positions, out,
                           rows, d1, d2, d3);
}

void NeonAttentionForwardBlocked(const float* q, const float* kbt,
                                 const float* vb, float* out,
                                 const int* offsets, const int* lengths,
                                 int num_seqs, int num_heads, int total_rows,
                                 int dim, float scale, float* probs,
                                 int keep_probs) {
  AttentionForwardBlockedT<NeonOps>(q, kbt, vb, out, offsets, lengths, num_seqs,
                                    num_heads, total_rows, dim, scale, probs,
                                    keep_probs);
}

// Packed-tile int8 GEMM: one widened activation block feeds four
// multiply-accumulate-long dots against the four consecutive channel rows
// of the tile (pre-sign-extended to int16 at pack time, so the weight
// loads need no widening) — sequential weight reads, one vaddvq per
// channel per tile instead of per k-step. vmlal_s16 accumulates straight
// into int32 lanes, matching the op count of the old vmull_s8 + vpadal
// pair. Exact integer arithmetic, bit-identical to Int8GemmPackedRef.
void NeonInt8GemmPacked(const int8_t* a, const int16_t* bp, float* c, int m,
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
      int32x4_t acc0 = vdupq_n_s32(0);
      int32x4_t acc1 = vdupq_n_s32(0);
      int32x4_t acc2 = vdupq_n_s32(0);
      int32x4_t acc3 = vdupq_n_s32(0);
      for (int b = 0; b < kb; ++b) {
        const int8x16_t av = vld1q_s8(arow + b * kInt8TileK);
        const int16x8_t alo = vmovl_s8(vget_low_s8(av));
        const int16x8_t ahi = vmovl_s8(vget_high_s8(av));
        const int16_t* bb =
            btile + static_cast<size_t>(b) * (kInt8TileN * kInt8TileK);
        const int16x8_t b0l = vld1q_s16(bb);
        const int16x8_t b0h = vld1q_s16(bb + 8);
        const int16x8_t b1l = vld1q_s16(bb + kInt8TileK);
        const int16x8_t b1h = vld1q_s16(bb + kInt8TileK + 8);
        const int16x8_t b2l = vld1q_s16(bb + 2 * kInt8TileK);
        const int16x8_t b2h = vld1q_s16(bb + 2 * kInt8TileK + 8);
        const int16x8_t b3l = vld1q_s16(bb + 3 * kInt8TileK);
        const int16x8_t b3h = vld1q_s16(bb + 3 * kInt8TileK + 8);
        acc0 = vmlal_s16(acc0, vget_low_s16(alo), vget_low_s16(b0l));
        acc0 = vmlal_s16(acc0, vget_high_s16(alo), vget_high_s16(b0l));
        acc0 = vmlal_s16(acc0, vget_low_s16(ahi), vget_low_s16(b0h));
        acc0 = vmlal_s16(acc0, vget_high_s16(ahi), vget_high_s16(b0h));
        acc1 = vmlal_s16(acc1, vget_low_s16(alo), vget_low_s16(b1l));
        acc1 = vmlal_s16(acc1, vget_high_s16(alo), vget_high_s16(b1l));
        acc1 = vmlal_s16(acc1, vget_low_s16(ahi), vget_low_s16(b1h));
        acc1 = vmlal_s16(acc1, vget_high_s16(ahi), vget_high_s16(b1h));
        acc2 = vmlal_s16(acc2, vget_low_s16(alo), vget_low_s16(b2l));
        acc2 = vmlal_s16(acc2, vget_high_s16(alo), vget_high_s16(b2l));
        acc2 = vmlal_s16(acc2, vget_low_s16(ahi), vget_low_s16(b2h));
        acc2 = vmlal_s16(acc2, vget_high_s16(ahi), vget_high_s16(b2h));
        acc3 = vmlal_s16(acc3, vget_low_s16(alo), vget_low_s16(b3l));
        acc3 = vmlal_s16(acc3, vget_high_s16(alo), vget_high_s16(b3l));
        acc3 = vmlal_s16(acc3, vget_low_s16(ahi), vget_low_s16(b3h));
        acc3 = vmlal_s16(acc3, vget_high_s16(ahi), vget_high_s16(b3h));
      }
      const int32_t acc[kInt8TileN] = {vaddvq_s32(acc0), vaddvq_s32(acc1),
                                       vaddvq_s32(acc2), vaddvq_s32(acc3)};
      const int jmax = (n - t * kInt8TileN < kInt8TileN) ? n - t * kInt8TileN
                                                         : kInt8TileN;
      for (int ch = 0; ch < jmax; ++ch) {
        const int j = t * kInt8TileN + ch;
        float y = static_cast<float>(acc[ch]) * as * b_scale[j];
        if (bias != nullptr) y += bias[j];
        crow[j] = y;
      }
    }
  }
}

// 4-lane quantize: the exact trunc(t + copysign(0.5, t)) sequence of
// QuantizeOneRef lane by lane — every step an exact IEEE op.
void NeonQuantizeBuffer(const float* x, int n, float inv_scale, int8_t* out) {
  const float32x4_t vs = vdupq_n_f32(inv_scale);
  const uint32x4_t sign = vdupq_n_u32(0x80000000u);
  const float32x4_t half = vdupq_n_f32(0.5f);
  const float32x4_t hi = vdupq_n_f32(127.0f);
  const float32x4_t lo = vdupq_n_f32(-127.0f);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t t = vmulq_f32(vld1q_f32(x + i), vs);
    const float32x4_t h = vreinterpretq_f32_u32(vorrq_u32(
        vandq_u32(vreinterpretq_u32_f32(t), sign),
        vreinterpretq_u32_f32(half)));
    float32x4_t r = vrndq_f32(vaddq_f32(t, h));  // round toward zero
    r = vmaxq_f32(vminq_f32(r, hi), lo);
    const int32x4_t q32 = vcvtq_s32_f32(r);
    const int16x4_t q16 = vmovn_s32(q32);
    const int8x8_t q8 = vmovn_s16(vcombine_s16(q16, q16));
    out[i] = vget_lane_s8(q8, 0);
    out[i + 1] = vget_lane_s8(q8, 1);
    out[i + 2] = vget_lane_s8(q8, 2);
    out[i + 3] = vget_lane_s8(q8, 3);
  }
  for (; i < n; ++i) out[i] = QuantizeOneRef(x[i], inv_scale);
}

void NeonLinearBiasAct(const float* a, const float* b, const float* bias,
                       float* out, int m, int k, int n, int relu) {
  LinearBiasActT<NeonOps>(a, b, bias, out, m, k, n, relu);
}

void NeonAddRows(float* dst, const float* src, size_t n) {
  AddRowsT<NeonOps>(dst, src, n);
}

void NeonMatMulBackwardA(const float* og, const float* bv, float* ag, int i0,
                         int i1, int k, int n) {
  MatMulBackwardAT<NeonOps>(og, bv, ag, i0, i1, k, n);
}

void NeonMatMulBackwardB(const float* av, const float* og, float* bg, int p0,
                         int p1, int m, int k, int n) {
  MatMulBackwardBT<NeonOps>(av, og, bg, p0, p1, m, k, n);
}

void NeonBiasActBackward(const float* ov, const float* og, float* ag,
                         float* bg, int m, int n) {
  BiasActBackwardT<NeonOps>(ov, og, ag, bg, m, n);
}

void NeonLayerNormRowsBackward(const float* xv, const float* gv,
                               const float* og, float* xg, float* gg,
                               float* bg, int m, int n, float invn) {
  LayerNormRowsBackwardT<NeonOps>(xv, gv, og, xg, gg, bg, m, n, invn);
}

void NeonSoftmaxRowsMaskedBackward(const float* yv, const float* gy,
                                   float* gx, const int* valid, int m, int n) {
  SoftmaxRowsMaskedBackwardT<NeonOps>(yv, gy, gx, valid, m, n);
}

void NeonAttentionBackwardPacked(const float* qv, const float* kv,
                                 const float* vv, const float* og,
                                 const float* probs, float* qg, float* kg,
                                 float* vg, const int* offsets,
                                 const int* lengths, int num_seqs,
                                 int num_heads, int dim, float scale) {
  AttentionBackwardPackedT<NeonOps>(qv, kv, vv, og, probs, qg, kg, vg, offsets,
                                    lengths, num_seqs, num_heads, dim, scale);
}

void NeonAdamStep(float* value, const float* grad, float* m, float* v,
                  size_t n, float lr, float beta1, float beta2, float eps,
                  float bias1, float bias2, float weight_decay) {
  AdamStepT<NeonOps>(value, grad, m, v, n, lr, beta1, beta2, eps, bias1,
                     bias2, weight_decay);
}

const Kernels kNeonTable = {
    Level::kNeon,
    "neon",
    &NeonMatMulForwardRange,
    &NeonBiasRelu,
    &NeonLayerNormRows,
    &NeonSoftmaxRowsMasked,
    &NeonAttentionForwardPacked,
    &NeonEmbedGatherAdd,
    &NeonAttentionForwardBlocked,
    &NeonInt8GemmPacked,
    &NeonQuantizeBuffer,
    &NeonLinearBiasAct,
    &NeonAddRows,
    &NeonMatMulBackwardA,
    &NeonMatMulBackwardB,
    &NeonBiasActBackward,
    &NeonLayerNormRowsBackward,
    &NeonSoftmaxRowsMaskedBackward,
    &NeonAttentionBackwardPacked,
    &NeonAdamStep,
};

}  // namespace

const Kernels* GetNeonKernels() { return &kNeonTable; }

}  // namespace qpe::nn::simd

#endif  // QPE_HAVE_NEON
