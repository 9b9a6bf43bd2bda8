#ifndef QPE_NN_SIMD_H_
#define QPE_NN_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace qpe::nn::simd {

// Instruction-set level of the kernel table in use. Exactly one non-scalar
// level is compiled per architecture (AVX2 on x86-64, NEON on aarch64); the
// scalar table is always built and is the bit-exactness reference: with
// QPE_SIMD=0 every kernel below produces the same bits the pre-SIMD scalar
// loops in nn/tensor.cc produced.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

// Kernel dispatch table. All kernels operate on raw row-major buffers so
// both the autograd ops in nn/tensor.cc and the graph-free quantized
// inference engine (encoder/quantized_encoder.cc) share them.
//
// Numerics contract: the float kernels preserve each output element's
// accumulation order (axpy- and elementwise-shaped loops vectorize across
// independent output lanes, never across a reduction), and the vector
// variants use explicit mul+add — no FMA contraction. The AVX2/NEON tables
// are therefore bit-identical to the scalar table on every input today;
// tests still gate them by an epsilon contract (tests/simd_quant_test.cc)
// so a future lane-reduced kernel only has to stay within epsilon. The
// int8 kernel is pure integer arithmetic and must be bit-exact across all
// levels.
struct Kernels {
  Level level = Level::kScalar;
  const char* name = "scalar";

  // out[i0:i1, :] += A[i0:i1, :] * B with A [m,k], B [k,n]: the blocked
  // MatMul forward micro-kernel. Per output element the k dimension
  // accumulates in ascending order at every level.
  void (*matmul_forward_range)(const float* a, const float* b, float* out,
                               int i0, int i1, int k, int n);
  // out = max(a + bias, 0) over a row-major [m, n] block, bias [n].
  void (*bias_relu)(const float* a, const float* bias, float* out, int m,
                    int n);
  // Row-wise layer norm: y = ((x - mean) * recip) * gamma + beta. Row
  // statistics are computed scalar at every level (they are reductions;
  // keeping them scalar keeps the kernel bit-exact), the normalize pass
  // vectorizes across columns.
  void (*layer_norm_rows)(const float* x, const float* gamma,
                          const float* beta, float* out, int m, int n,
                          float invn);
  // Masked row softmax over the first valid[r] columns; remaining columns
  // are left untouched (the caller pre-zeroes them). exp and the sum stay
  // scalar (ascending-order reduction), max and the divide vectorize.
  void (*softmax_rows_masked)(const float* a, float* out, const int* valid,
                              int m, int n);
  // Fused packed multi-head attention forward (see
  // nn::MultiHeadAttentionPacked for the exact semantics). `probs_out` may
  // be null; otherwise it receives every (sequence, head) softmax block in
  // the [seq][head][len][len] layout attention_backward_packed reads
  // (num_heads * sum(len^2) floats).
  void (*attention_forward_packed)(const float* q, const float* k,
                                   const float* v, float* out,
                                   const int* offsets, const int* lengths,
                                   int num_seqs, int num_heads, int dim,
                                   float scale, float* probs_out);
  // Fused embedding gather + positional add for the packed batch pipeline:
  //   out[r, :] = concat(e1[ids1[r]], e2[ids2[r]], e3[ids3[r]]) +
  //               pos[positions[r], :]
  // with out [rows, d1+d2+d3] row-major. Pure copies and elementwise adds
  // in ascending column order, so every level is bit-identical.
  void (*embed_gather_add)(const float* e1, const float* e2, const float* e3,
                           const float* pos, const int* ids1, const int* ids2,
                           const int* ids3, const int* positions, float* out,
                           int rows, int d1, int d2, int d3);
  // Head-blocked variant of attention_forward_packed. q and out stay in the
  // interleaved [total_rows, dim] projection layout; keys arrive
  // pre-transposed per head as kbt [head][head_dim][total_rows] (row stride
  // total_rows) and values head-blocked as vb [head][total_rows][head_dim]
  // (contiguous head lanes), so the score and context loops stream
  // contiguous memory instead of striding across the interleaved heads.
  // `probs` is caller-provided — the kernel allocates nothing. With
  // keep_probs == 0 it is scratch of at least max(lengths)^2 floats,
  // overwritten per (sequence, head); with keep_probs != 0 it receives
  // every softmax block in the [seq][head][len][len] layout
  // attention_backward_packed reads (num_heads * sum(len^2) floats). Per
  // output element the arithmetic sequence is identical to
  // attention_forward_packed, so the two kernels agree bit for bit at
  // every level, probabilities included.
  void (*attention_forward_blocked)(const float* q, const float* kbt,
                                    const float* vb, float* out,
                                    const int* offsets, const int* lengths,
                                    int num_seqs, int num_heads,
                                    int total_rows, int dim, float scale,
                                    float* probs, int keep_probs);
  // int8 GEMM over pre-packed weight tiles (see PackInt8WeightTiles): bp
  // holds kInt8TileN output channels x kInt8TileK k-steps per tile in the
  // exact order the micro-kernel consumes, zero-padded in both dimensions
  // and pre-sign-extended to int16 — the values are still int8-range, but
  // widening them once at pack time removes the per-step sign-extension
  // shuffles from the hot loop (on AVX2 that was 4 of the 5 shuffles per
  // k-block). a is [m, Int8PackedKPad(k)] row-major int8 with the k tail
  // of every row zeroed by the caller. Dequantization:
  //   c[i, j] = dot(a[i, :], w[j, :]) * a_scale[i] * b_scale[j] + bias[j]
  // with bias possibly null. The integer accumulation is exact and the
  // padded entries contribute exact zeros, so the result equals plain
  // int32 dots on the unpacked operands, bit for bit at every level.
  void (*int8_gemm_packed)(const int8_t* a, const int16_t* bp, float* c,
                           int m, int k, int n, const float* a_scale,
                           const float* b_scale, const float* bias);
  // Quantizes n floats with one shared scale: round to nearest, ties away
  // from zero, saturating to [-127, 127] (the QuantizeValue contract, as
  // trunc(t + copysign(0.5, t)) — exact IEEE ops, so scalar and vector
  // lanes produce identical int8 for every input).
  void (*quantize_buffer)(const float* x, int n, float inv_scale,
                          int8_t* out);
  // Fused linear for the packed pipeline: out = act(A * B + bias) with A
  // [m, k], B [k, n], bias [n]; act is ReLU when `relu` is nonzero. The
  // accumulators start at zero in registers and the bias/ReLU ride the
  // GEMM epilogue, so no zero-fill or bias pass touches the output — yet
  // per output element the value stream (ascending-k mul/add pairs over
  // the aval != 0 subsequence, one bias add, the `> 0` clamp) is exactly
  // fill + matmul_forward_range + the bias/bias_relu pass, so every level
  // is bit-identical to that three-step chain.
  void (*linear_bias_act)(const float* a, const float* b, const float* bias,
                          float* out, int m, int k, int n, int relu);
  // dst[i] += src[i] over n floats (the packed pipeline's residual adds).
  // Elementwise; every level is bit-identical.
  void (*add_rows)(float* dst, const float* src, size_t n);

  // --- Backward kernels -----------------------------------------------
  // The training-side counterparts of the forwards above, with the same
  // numerics contract: the scalar table reproduces the pre-SIMD backward
  // closures in nn/tensor.cc bit for bit, and the vector tables preserve
  // each gradient element's accumulation order (dot-shaped reductions
  // keep their ascending order per lane; elementwise passes vectorize
  // freely). The attention backward reads the probabilities its forward
  // kept rather than recomputing them, so the one cross-level deviation
  // is inherited from the forward's V::Exp: given the same probabilities
  // every level produces the same gradient bits.

  // dA[i0:i1, :] += dOut[i0:i1, :] * B^T with dOut [m, n], B [k, n]. Each
  // dA element is one complete ascending-j dot accumulated in a register
  // and added to dA once — the vector levels run lanes across the p (dA
  // column) dimension over a transposed copy of B, so every lane's dot
  // keeps the scalar's ascending-j order and the single final add.
  void (*matmul_backward_a)(const float* og, const float* bv, float* ag,
                            int i0, int i1, int k, int n);
  // dB[p0:p1, :] += (A^T * dOut)[p0:p1, :] with A [m, k], dOut [m, n]:
  // rank-1 row updates, i accumulated in ascending order per output
  // element regardless of the p partition, with the seed's aval == 0 skip
  // kept at every level (same value subsequence, so same bits). Vector
  // levels run lanes across the j (dB column) dimension.
  void (*matmul_backward_b)(const float* av, const float* og, float* bg,
                            int p0, int p1, int m, int k, int n);
  // Backward of bias_relu: for elements where the forward output ov was
  // > 0, ag[r, c] += og[r, c] and bg[c] += og[r, c]; gated elements are
  // untouched. ag / bg may be null to skip that gradient. bg accumulates
  // rows in ascending order per column at every level.
  void (*bias_act_backward)(const float* ov, const float* og, float* ag,
                            float* bg, int m, int n);
  // Backward of layer_norm_rows: given forward input xv and gamma gv,
  // accumulates xg (input grad), gg (gamma grad) and bg (beta grad), any
  // of which may be null. Row statistics and the m1/m2 reductions stay
  // scalar ascending at every level; the gg/bg and xg passes are
  // elementwise and vectorize bit-identically.
  void (*layer_norm_rows_backward)(const float* xv, const float* gv,
                                   const float* og, float* xg, float* gg,
                                   float* bg, int m, int n, float invn);
  // Backward of softmax_rows_masked: gx[r, c] += y[r, c] * (gy[r, c] -
  // dot_r) over the first valid[r] columns, dot_r = sum_c y * gy kept
  // scalar ascending; the gx pass is elementwise.
  void (*softmax_rows_masked_backward)(const float* yv, const float* gy,
                                       float* gx, const int* valid, int m,
                                       int n);
  // Backward of the packed attention forwards: accumulates qg / kg / vg,
  // any of which may be null, from the softmax probabilities `probs` the
  // forward kept, laid out [seq][head][len][len] — block (s, h) starts at
  // num_heads * sum_{s' < s} len_{s'}^2 + h * len_s^2. Nothing is
  // recomputed. All dot reductions keep the scalar's ascending order per
  // lane, and every gradient element adds its terms in the scalar's order,
  // so every level produces the scalar table's bits.
  void (*attention_backward_packed)(const float* qv, const float* kv,
                                    const float* vv, const float* og,
                                    const float* probs, float* qg,
                                    float* kg, float* vg,
                                    const int* offsets, const int* lengths,
                                    int num_seqs, int num_heads, int dim,
                                    float scale);
  // Fused Adam/AdamW parameter update over one flat parameter buffer:
  //   m[j] = beta1 * m[j] + (1 - beta1) * g[j]
  //   v[j] = beta2 * v[j] + (1 - beta2) * g[j] * g[j]
  //   value[j] -= lr * (m[j]/bias1) / (sqrt(v[j]/bias2) + eps)       (Adam)
  //   value[j] -= lr * ((m[j]/bias1) / (sqrt(v[j]/bias2) + eps)
  //               + weight_decay * value[j])                         (AdamW)
  // Purely elementwise, and sqrt/div are correctly rounded IEEE ops, so
  // every level is bit-identical — lane for lane the vector path computes
  // the scalar expression tree (including the left-associated
  // ((1-beta2)*g)*g product). weight_decay == 0 selects the plain-Adam
  // expression so zero-decay AdamW stays bitwise identical to Adam.
  void (*adam_step)(float* value, const float* grad, float* m, float* v,
                    size_t n, float lr, float beta1, float beta2, float eps,
                    float bias1, float bias2, float weight_decay);
};

// Tile geometry of the packed int8 weight layout: kInt8TileN output
// channels interleaved per tile, kInt8TileK quantized inputs per step (one
// 128-bit int8 vector).
inline constexpr int kInt8TileK = 16;
inline constexpr int kInt8TileN = 4;

inline int Int8PackedKPad(int k) {
  return ((k + kInt8TileK - 1) / kInt8TileK) * kInt8TileK;
}
inline size_t Int8PackedSize(int k, int n) {
  const size_t tiles = static_cast<size_t>((n + kInt8TileN - 1) / kInt8TileN);
  return tiles * static_cast<size_t>(Int8PackedKPad(k)) * kInt8TileN;
}

// Repacks channel-contiguous int8 weights w [n][k]
// into the tiled layout int8_gemm_packed consumes:
//   packed[((t*KB + b)*kInt8TileN + ch)*kInt8TileK + kk] = w[(t*kInt8TileN +
//   ch)][b*kInt8TileK + kk]
// with KB = Int8PackedKPad(k)/kInt8TileK; out-of-range channels and k
// positions are zero. Each entry is the int8 weight sign-extended to
// int16 (see int8_gemm_packed). `packed` must hold Int8PackedSize(k, n)
// elements. Plain widening copies — done once at Quantize() time, never
// on the serve path.
void PackInt8WeightTiles(const int8_t* w, int k, int n, int16_t* packed);

// The active kernel table. Selected once on first use: the best level the
// hardware supports (cpuid on x86-64, getauxval on aarch64), downgraded by
// the QPE_SIMD environment knob ("0"/"scalar" force the scalar table,
// "avx2"/"neon" request a level and fall back to scalar if unavailable)
// and forced to scalar under sanitizer builds (QPE_SANITIZE_BUILD) so TSan
// and ASan exercise the dispatch machinery without vendor intrinsics.
const Kernels& K();

// Level of the active table (== K().level).
Level ActiveLevel();

// Highest level this binary + CPU supports, before QPE_SIMD and sanitizer
// downgrades. Stamped into benchmark baselines next to the active level.
Level HardwareLevel();

const char* LevelName(Level level);

// Parses a QPE_SIMD-style string: "0"/"scalar" -> kScalar, "avx2" ->
// kAvx2, "neon" -> kNeon, "1"/"auto"/"" -> `fallback`. Unknown strings
// also return `fallback`. Exposed for tests.
Level ParseLevel(const char* s, Level fallback);

// Test/bench hook: swap the active table. Requests above what the binary
// supports (or any non-scalar level under a sanitizer build) clamp to
// scalar; returns the level actually installed. Not safe to call while
// kernels are running on other threads.
Level ForceLevel(Level level);

// Per-level tables; null when the level is not compiled into this binary.
// Scalar is always available.
const Kernels* TableFor(Level level);

}  // namespace qpe::nn::simd

#endif  // QPE_NN_SIMD_H_
