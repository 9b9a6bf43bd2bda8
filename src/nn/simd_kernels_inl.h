#ifndef QPE_NN_SIMD_KERNELS_INL_H_
#define QPE_NN_SIMD_KERNELS_INL_H_

// Kernel bodies shared by every SIMD level. Each instruction set provides a
// small vector-ops policy (lane count, load/store/broadcast, mul/add/max,
// horizontal max) and instantiates these templates; qpe/nn/simd.cc holds
// the scalar policy, simd_avx2.cc / simd_neon.cc the vector ones. One body
// per kernel keeps the three tables in lockstep: a numerics fix lands in
// all of them at once.
//
// Exactness discipline (see simd.h): loops vectorize only across
// independent output lanes. Reductions (row sums, exp sums, dot products)
// stay scalar in ascending order; max reductions may vectorize because
// float max is exactly associative and commutative on the finite inputs
// these kernels see. Policies must implement Mul/Add as separate
// operations (never a fused multiply-add), and the per-ISA translation
// units compile with -ffp-contract=off so the compiler cannot re-fuse
// them.
//
// The one sanctioned deviation is V::Exp. The scalar policy's Exp is
// std::exp — the scalar table therefore reproduces the pre-SIMD results
// bit for bit, as required — but the vector policies implement a
// polynomial expf (~2 ulp), so softmax outputs under a vector level agree
// with the scalar reference only within the epsilon contract. Profiling
// showed scalar expf dominating the attention softmax (~40% of an
// end-to-end forward on short plan sequences), and unlike the sum loops
// there is no ordering argument that would make a lane-parallel exp
// bit-exact anyway — exp is elementwise, the divergence is purely the
// polynomial. Every consumer of these kernels reaches them through the
// same dispatch table, so batched-vs-single bit-equality still holds at
// every level; only cross-level equality is epsilon-gated.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qpe::nn::simd {

// Row statistics of the fused LayerNorm, replicating the original autograd
// chain's arithmetic exactly: mean and variance accumulate in ascending
// column order and scale by a precomputed 1/n, and the reciprocal standard
// deviation goes through the same clamped sqrt/log/exp chain the composite
// forward used (Sqrt -> Log -> Scale(-1) -> Exp). Shared by the forward
// kernels here and the (scalar) backward closure in nn/tensor.cc.
inline void LayerNormRowStats(const float* __restrict row, int n, float invn,
                              float* mean_out, float* recip_out) {
  constexpr float kLogEps = 1e-12f;
  float total = 0;
  for (int c = 0; c < n; ++c) total += row[c];
  const float mean = total * invn;
  float sq = 0;
  for (int c = 0; c < n; ++c) {
    const float d = row[c] - mean;
    sq += d * d;
  }
  const float var = sq * invn;
  const float inv_std = std::sqrt(std::max(var + 1e-5f, 0.0f));
  const float log_std = std::log(std::max(inv_std, kLogEps));
  *mean_out = mean;
  *recip_out = std::exp(std::min(-log_std, 30.0f));
}

// MatMul tile sizes, identical to the pre-SIMD blocked kernel: a
// [kKC x kNC] panel of B (64 KB) stays resident in L1/L2 while it is
// streamed against every row of A.
inline constexpr int kSimdMatMulKC = 64;
inline constexpr int kSimdMatMulNC = 256;

// out[i0:i1, :] += A[i0:i1, :] * B. Vector levels run register-tiled:
// each output tile is held in accumulator registers across the whole
// k-block instead of being streamed through memory on every k step. Per
// output element this is the exact operation sequence of the original
// saxpy loop — the same mul-then-add pairs, over the same aval != 0
// subsequence of k, in the same ascending order; only the intermediate
// loads/stores of the output row disappear, and those never round. Every
// level therefore produces the same bits as the pre-SIMD kernel, for
// every thread count. What the tiling buys is breaking the loop-carried
// store-to-load dependency the saxpy form had (~10 cycles per k step
// through the store buffer, vs one add latency per independent
// accumulator) — on the model's small GEMMs this was the single largest
// cost in an end-to-end forward. The width-1 scalar policy keeps the
// original p-outer saxpy shape (same bits again): at one float per
// "vector" the tiles would walk B column-wise with a sparsity branch per
// tile instead of per k step, which measured ~1.4x slower than the
// seed loop it is required to reproduce.
template <typename V>
void MatMulForwardRangeT(const float* __restrict av, const float* __restrict bv,
                         float* __restrict ov, int i0, int i1, int k, int n) {
  constexpr int L = V::kLanes;
  for (int p0 = 0; p0 < k; p0 += kSimdMatMulKC) {
    const int p1 = std::min(k, p0 + kSimdMatMulKC);
    for (int j0 = 0; j0 < n; j0 += kSimdMatMulNC) {
      const int j1 = std::min(n, j0 + kSimdMatMulNC);
      for (int i = i0; i < i1; ++i) {
        const float* __restrict arow = av + static_cast<size_t>(i) * k;
        float* __restrict orow = ov + static_cast<size_t>(i) * n;
        if constexpr (L == 1) {
          for (int p = p0; p < p1; ++p) {
            const float aval = arow[p];
            if (aval == 0.0f) continue;  // Relu outputs are often sparse
            const float* __restrict brow = bv + static_cast<size_t>(p) * n;
            for (int j = j0; j < j1; ++j) orow[j] += aval * brow[j];
          }
          continue;
        }
        int j = j0;
        // 4-vector tiles: 4 independent accumulator chains in flight.
        for (; j + 4 * L <= j1; j += 4 * L) {
          auto a0 = V::Load(orow + j);
          auto a1 = V::Load(orow + j + L);
          auto a2 = V::Load(orow + j + 2 * L);
          auto a3 = V::Load(orow + j + 3 * L);
          for (int p = p0; p < p1; ++p) {
            const float aval = arow[p];
            if (aval == 0.0f) continue;  // Relu outputs are often sparse
            const float* __restrict brow =
                bv + static_cast<size_t>(p) * n + j;
            const auto va = V::Broadcast(aval);
            a0 = V::Add(a0, V::Mul(va, V::Load(brow)));
            a1 = V::Add(a1, V::Mul(va, V::Load(brow + L)));
            a2 = V::Add(a2, V::Mul(va, V::Load(brow + 2 * L)));
            a3 = V::Add(a3, V::Mul(va, V::Load(brow + 3 * L)));
          }
          V::Store(orow + j, a0);
          V::Store(orow + j + L, a1);
          V::Store(orow + j + 2 * L, a2);
          V::Store(orow + j + 3 * L, a3);
        }
        // 2-vector and 1-vector remainder tiles.
        for (; j + 2 * L <= j1; j += 2 * L) {
          auto a0 = V::Load(orow + j);
          auto a1 = V::Load(orow + j + L);
          for (int p = p0; p < p1; ++p) {
            const float aval = arow[p];
            if (aval == 0.0f) continue;
            const float* __restrict brow =
                bv + static_cast<size_t>(p) * n + j;
            const auto va = V::Broadcast(aval);
            a0 = V::Add(a0, V::Mul(va, V::Load(brow)));
            a1 = V::Add(a1, V::Mul(va, V::Load(brow + L)));
          }
          V::Store(orow + j, a0);
          V::Store(orow + j + L, a1);
        }
        for (; j + L <= j1; j += L) {
          auto a0 = V::Load(orow + j);
          for (int p = p0; p < p1; ++p) {
            const float aval = arow[p];
            if (aval == 0.0f) continue;
            a0 = V::Add(a0, V::Mul(V::Broadcast(aval),
                                   V::Load(bv + static_cast<size_t>(p) * n + j)));
          }
          V::Store(orow + j, a0);
        }
        for (; j < j1; ++j) {
          float acc = orow[j];
          for (int p = p0; p < p1; ++p) {
            const float aval = arow[p];
            if (aval == 0.0f) continue;
            acc += aval * bv[static_cast<size_t>(p) * n + j];
          }
          orow[j] = acc;
        }
      }
    }
  }
}

// out = max(a + bias, 0): elementwise, so vector lanes are bit-identical
// to the scalar loop.
template <typename V>
void BiasReluT(const float* __restrict av, const float* __restrict bv,
               float* __restrict ov, int m, int n) {
  constexpr int L = V::kLanes;
  const int nv = (n / L) * L;
  const auto zero = V::Broadcast(0.0f);
  for (int r = 0; r < m; ++r) {
    const float* __restrict arow = av + static_cast<size_t>(r) * n;
    float* __restrict orow = ov + static_cast<size_t>(r) * n;
    int c = 0;
    for (; c < nv; c += L) {
      V::Store(orow + c,
               V::Max(V::Add(V::Load(arow + c), V::Load(bv + c)), zero));
    }
    for (; c < n; ++c) {
      const float s = arow[c] + bv[c];
      orow[c] = s > 0 ? s : 0.0f;
    }
  }
}

// Fused linear layer for the packed pipeline: out = act(A * B + bias) with
// A [m, k], B [k, n], bias [n], act = ReLU when `relu` is nonzero, identity
// otherwise. Per output element this is the op chain's exact sequence —
// zero, ascending-k mul/add pairs, one bias add, then bias_relu's `> 0`
// clamp — but the zero lives in a register instead of a pre-filled buffer
// and the bias/ReLU ride the GEMM epilogue, so the fused kernel never
// makes the zero-fill and bias passes over the output. Dropping the
// k-panel split changes only where intermediate sums sit (registers vs a
// stored row reloaded exactly), so every level is bit-identical to fill +
// matmul_forward_range + bias (+ bias_relu's clamp).
//
// Unlike MatMulForwardRangeT, the vector path has no aval == 0 skip: on
// the ReLU-sparse ff2 input (~50% random zeros) the data-dependent branch
// mispredicts constantly and measured 3.5x slower than just doing the
// multiplies. Including the zero products is bit-identical to skipping
// them here because the accumulator starts at +0 and a round-to-nearest
// sum that starts at +0 can never become -0 (exact cancellation rounds to
// +0, and adding a zero of either sign to +0 yields +0) — so every aval ==
// 0 step adds a +/-0 product to a non-negative-zero accumulator, which
// never changes a bit. matmul_forward_range cannot make that argument (its
// out is caller-provided and may hold -0), which is one more reason the
// fused kernel is separate. The width-1 policy keeps the seed's saxpy
// shape, skip included.
template <typename V>
void LinearBiasActT(const float* __restrict av, const float* __restrict bv,
                    const float* __restrict biasv, float* __restrict ov,
                    int m, int k, int n, int relu) {
  constexpr int L = V::kLanes;
  if constexpr (L == 1) {
    // Width-1 policy: the p-outer saxpy shape of MatMulForwardRangeT (see
    // the rationale there), then the op chain's bias/ReLU passes.
    for (int i = 0; i < m; ++i) {
      const float* __restrict arow = av + static_cast<size_t>(i) * k;
      float* __restrict orow = ov + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) orow[j] = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float aval = arow[p];
        if (aval == 0.0f) continue;
        const float* __restrict brow = bv + static_cast<size_t>(p) * n;
        for (int j = 0; j < n; ++j) orow[j] += aval * brow[j];
      }
      if (relu != 0) {
        for (int j = 0; j < n; ++j) {
          const float s = orow[j] + biasv[j];
          orow[j] = s > 0 ? s : 0.0f;
        }
      } else {
        for (int j = 0; j < n; ++j) orow[j] += biasv[j];
      }
    }
    return;
  }
  const auto zero = V::Broadcast(0.0f);
  for (int i = 0; i < m; ++i) {
    const float* __restrict arow = av + static_cast<size_t>(i) * k;
    float* __restrict orow = ov + static_cast<size_t>(i) * n;
    int j = 0;
    for (; j + 4 * L <= n; j += 4 * L) {
      auto a0 = zero;
      auto a1 = zero;
      auto a2 = zero;
      auto a3 = zero;
      for (int p = 0; p < k; ++p) {
        const float* __restrict brow = bv + static_cast<size_t>(p) * n + j;
        const auto va = V::Broadcast(arow[p]);
        a0 = V::Add(a0, V::Mul(va, V::Load(brow)));
        a1 = V::Add(a1, V::Mul(va, V::Load(brow + L)));
        a2 = V::Add(a2, V::Mul(va, V::Load(brow + 2 * L)));
        a3 = V::Add(a3, V::Mul(va, V::Load(brow + 3 * L)));
      }
      a0 = V::Add(a0, V::Load(biasv + j));
      a1 = V::Add(a1, V::Load(biasv + j + L));
      a2 = V::Add(a2, V::Load(biasv + j + 2 * L));
      a3 = V::Add(a3, V::Load(biasv + j + 3 * L));
      if (relu != 0) {
        a0 = V::Max(a0, zero);
        a1 = V::Max(a1, zero);
        a2 = V::Max(a2, zero);
        a3 = V::Max(a3, zero);
      }
      V::Store(orow + j, a0);
      V::Store(orow + j + L, a1);
      V::Store(orow + j + 2 * L, a2);
      V::Store(orow + j + 3 * L, a3);
    }
    for (; j + 2 * L <= n; j += 2 * L) {
      auto a0 = zero;
      auto a1 = zero;
      for (int p = 0; p < k; ++p) {
        const float* __restrict brow = bv + static_cast<size_t>(p) * n + j;
        const auto va = V::Broadcast(arow[p]);
        a0 = V::Add(a0, V::Mul(va, V::Load(brow)));
        a1 = V::Add(a1, V::Mul(va, V::Load(brow + L)));
      }
      a0 = V::Add(a0, V::Load(biasv + j));
      a1 = V::Add(a1, V::Load(biasv + j + L));
      if (relu != 0) {
        a0 = V::Max(a0, zero);
        a1 = V::Max(a1, zero);
      }
      V::Store(orow + j, a0);
      V::Store(orow + j + L, a1);
    }
    for (; j + L <= n; j += L) {
      auto a0 = zero;
      for (int p = 0; p < k; ++p) {
        a0 = V::Add(a0, V::Mul(V::Broadcast(arow[p]),
                               V::Load(bv + static_cast<size_t>(p) * n + j)));
      }
      a0 = V::Add(a0, V::Load(biasv + j));
      if (relu != 0) a0 = V::Max(a0, zero);
      V::Store(orow + j, a0);
    }
    for (; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) {
        acc += arow[p] * bv[static_cast<size_t>(p) * n + j];
      }
      const float s = acc + biasv[j];
      orow[j] = (relu != 0 && !(s > 0)) ? 0.0f : s;
    }
  }
}

// dst[i] += src[i]: the residual-stream add of the packed pipeline.
// Elementwise, so vector lanes are bit-identical to the scalar loop.
template <typename V>
void AddRowsT(float* __restrict dst, const float* __restrict src, size_t n) {
  constexpr int L = V::kLanes;
  const size_t nv = (n / L) * L;
  size_t i = 0;
  for (; i < nv; i += L) {
    V::Store(dst + i, V::Add(V::Load(dst + i), V::Load(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

// y = ((x - mean) * recip) * gamma + beta. Stats stay scalar (reductions);
// the normalize pass is elementwise and vectorizes bit-identically.
template <typename V>
void LayerNormRowsT(const float* __restrict xv, const float* __restrict gv,
                    const float* __restrict bv, float* __restrict ov, int m,
                    int n, float invn) {
  constexpr int L = V::kLanes;
  const int nv = (n / L) * L;
  for (int r = 0; r < m; ++r) {
    const float* __restrict xrow = xv + static_cast<size_t>(r) * n;
    float* __restrict orow = ov + static_cast<size_t>(r) * n;
    float mean, recip;
    LayerNormRowStats(xrow, n, invn, &mean, &recip);
    const auto vmean = V::Broadcast(mean);
    const auto vrecip = V::Broadcast(recip);
    int c = 0;
    for (; c < nv; c += L) {
      const auto xhat = V::Mul(V::Sub(V::Load(xrow + c), vmean), vrecip);
      V::Store(orow + c, V::Add(V::Mul(xhat, V::Load(gv + c)), V::Load(bv + c)));
    }
    for (; c < n; ++c) {
      orow[c] = ((xrow[c] - mean) * recip) * gv[c] + bv[c];
    }
  }
}

// Masked row softmax over the first valid[r] columns. The max reduction
// vectorizes (exact) and exp vectorizes through V::Exp (scalar level:
// std::exp, bit-exact to seed; vector levels: polynomial, epsilon-gated);
// the normalizing sum stays scalar in ascending order over the stored exp
// values, and the final divide is elementwise.
template <typename V>
void SoftmaxRowsMaskedT(const float* __restrict av, float* __restrict ov,
                        const int* __restrict valid, int m, int n) {
  constexpr int L = V::kLanes;
  for (int r = 0; r < m; ++r) {
    const int v = std::min(std::max(valid[r], 0), n);
    const float* __restrict row = av + static_cast<size_t>(r) * n;
    float* __restrict orow = ov + static_cast<size_t>(r) * n;
    if (v == 0) continue;  // row already zero
    float max_v = row[0];
    int c = 1;
    if (v >= L) {
      auto vmax = V::Load(row);
      for (c = L; c + L <= v; c += L) vmax = V::Max(vmax, V::Load(row + c));
      max_v = V::HMax(vmax);
    }
    for (; c < v; ++c) max_v = std::max(max_v, row[c]);
    const int cv = (v / L) * L;
    {
      const auto vm = V::Broadcast(max_v);
      int j = 0;
      for (; j < cv; j += L) {
        V::Store(orow + j, V::Exp(V::Sub(V::Load(row + j), vm)));
      }
      for (; j < v; ++j) orow[j] = std::exp(row[j] - max_v);
    }
    float total = 0;
    for (int j = 0; j < v; ++j) total += orow[j];
    const auto vtotal = V::Broadcast(total);
    int j = 0;
    for (; j < cv; j += L) V::Store(orow + j, V::Div(V::Load(orow + j), vtotal));
    for (; j < v; ++j) orow[j] /= total;
  }
}

// Fused packed multi-head attention forward (semantics documented at
// nn::MultiHeadAttentionPacked). The score and context loops are
// axpy-shaped and vectorize across their independent output lanes; the
// softmax inside follows the same max-vector/exp-via-V::Exp/sum-scalar
// split as SoftmaxRowsMaskedT.
template <typename V>
void AttentionForwardPackedT(const float* __restrict qv,
                             const float* __restrict kv,
                             const float* __restrict vv, float* __restrict ov,
                             const int* __restrict offsets,
                             const int* __restrict lengths, int num_seqs,
                             int num_heads, int dim, float scale,
                             float* __restrict probs_out) {
  constexpr int L = V::kLanes;
  const int dh = dim / num_heads;
  const int dhv = (dh / L) * L;
  std::vector<float> scratch;  // per-(sequence, head) [len, len] scratch
  std::vector<float> kt;       // packed k^T head block, [dh, len]
  for (int s = 0; s < num_seqs; ++s) {
    const int off = offsets[s];
    const int len = lengths[s];
    const int lenv = (len / L) * L;
    if (probs_out == nullptr) scratch.resize(static_cast<size_t>(len) * len);
    kt.resize(static_cast<size_t>(dh) * len);
    for (int h = 0; h < num_heads; ++h) {
      const int col0 = h * dh;
      // This (sequence, head)'s probability block: the caller's next slot
      // when it keeps them for the backward, else the reused scratch.
      float* __restrict probs = scratch.data();
      if (probs_out != nullptr) {
        probs = probs_out;
        probs_out += static_cast<size_t>(len) * len;
      }
      // Pack the head's key block transposed so the score loops run
      // saxpy-style over a contiguous j dimension.
      for (int j = 0; j < len; ++j) {
        const float* __restrict krow =
            kv + static_cast<size_t>(off + j) * dim + col0;
        for (int c = 0; c < dh; ++c) {
          kt[static_cast<size_t>(c) * len + j] = krow[c];
        }
      }
      // Scores then row softmax: ascending-c accumulation scaled once
      // after the sum, then max/exp/sum/divide per row — the same
      // arithmetic as Scale(MatMul(qh, Transpose(kh)), scale) and
      // SoftmaxRows, element for element.
      for (int i = 0; i < len; ++i) {
        const float* __restrict qrow =
            qv + static_cast<size_t>(off + i) * dim + col0;
        float* __restrict prow = probs + static_cast<size_t>(i) * len;
        // Scores q·k, register-tiled over j like MatMulForwardRangeT: the
        // per-element sum still accumulates ascending c from zero, so the
        // bits match the old zero-then-axpy form at every level. The
        // scalar policy keeps the axpy shape (identical bits, better
        // locality at width 1 — same reasoning as MatMulForwardRangeT).
        if constexpr (L == 1) {
          for (int j = 0; j < len; ++j) prow[j] = 0.0f;
          for (int c = 0; c < dh; ++c) {
            const float qc = qrow[c];
            const float* __restrict ktrow =
                kt.data() + static_cast<size_t>(c) * len;
            for (int j = 0; j < len; ++j) prow[j] += qc * ktrow[j];
          }
        } else {
          const float* __restrict ktv = kt.data();
          const auto zero = V::Broadcast(0.0f);
          int j = 0;
          for (; j + 2 * L <= len; j += 2 * L) {
            auto a0 = zero;
            auto a1 = zero;
            for (int c = 0; c < dh; ++c) {
              const float* __restrict ktrow =
                  ktv + static_cast<size_t>(c) * len + j;
              const auto vq = V::Broadcast(qrow[c]);
              a0 = V::Add(a0, V::Mul(vq, V::Load(ktrow)));
              a1 = V::Add(a1, V::Mul(vq, V::Load(ktrow + L)));
            }
            V::Store(prow + j, a0);
            V::Store(prow + j + L, a1);
          }
          for (; j + L <= len; j += L) {
            auto a0 = zero;
            for (int c = 0; c < dh; ++c) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(qrow[c]),
                                     V::Load(ktv + static_cast<size_t>(c) * len +
                                             j)));
            }
            V::Store(prow + j, a0);
          }
          for (; j < len; ++j) {
            float acc = 0;
            for (int c = 0; c < dh; ++c) {
              acc += qrow[c] * ktv[static_cast<size_t>(c) * len + j];
            }
            prow[j] = acc;
          }
        }
        // Scale all scores, then take the row max (exact reduction).
        {
          const auto vs = V::Broadcast(scale);
          int j = 0;
          for (; j < lenv; j += L) {
            V::Store(prow + j, V::Mul(V::Load(prow + j), vs));
          }
          for (; j < len; ++j) prow[j] *= scale;
        }
        float max_v = prow[0];
        {
          int j = 1;
          if (len >= L) {
            auto vmax = V::Load(prow);
            for (j = L; j + L <= len; j += L) {
              vmax = V::Max(vmax, V::Load(prow + j));
            }
            max_v = V::HMax(vmax);
          }
          for (; j < len; ++j) max_v = std::max(max_v, prow[j]);
        }
        {
          const auto vm = V::Broadcast(max_v);
          int j = 0;
          for (; j < lenv; j += L) {
            V::Store(prow + j, V::Exp(V::Sub(V::Load(prow + j), vm)));
          }
          for (; j < len; ++j) prow[j] = std::exp(prow[j] - max_v);
        }
        float sum = 0;
        for (int j = 0; j < len; ++j) sum += prow[j];
        {
          const auto vsum = V::Broadcast(sum);
          int j = 0;
          for (; j < lenv; j += L) {
            V::Store(prow + j, V::Div(V::Load(prow + j), vsum));
          }
          for (; j < len; ++j) prow[j] /= sum;
        }
      }
      // Context = probs * vh: j-outer saxpy over the contiguous c lanes of
      // v; per element this accumulates ascending j, exactly like
      // MatMul(probs, vh).
      for (int i = 0; i < len; ++i) {
        const float* __restrict prow =
            probs + static_cast<size_t>(i) * len;
        float* __restrict orow = ov + static_cast<size_t>(off + i) * dim + col0;
        // Context probs * vh, register-tiled over the head lanes c: the
        // per-element sum accumulates ascending j from zero, exactly like
        // the old zero-then-axpy form. The scalar policy keeps the axpy
        // shape (identical bits, better locality at width 1).
        if constexpr (L == 1) {
          for (int c = 0; c < dh; ++c) orow[c] = 0.0f;
          for (int j = 0; j < len; ++j) {
            const float p = prow[j];
            const float* __restrict vrow =
                vv + static_cast<size_t>(off + j) * dim + col0;
            for (int c = 0; c < dh; ++c) orow[c] += p * vrow[c];
          }
        } else {
          const auto zero = V::Broadcast(0.0f);
          int c = 0;
          for (; c < dhv; c += L) {
            auto a0 = zero;
            for (int j = 0; j < len; ++j) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(prow[j]),
                                     V::Load(vv + static_cast<size_t>(off + j) *
                                                      dim +
                                             col0 + c)));
            }
            V::Store(orow + c, a0);
          }
          for (; c < dh; ++c) {
            float acc = 0;
            for (int j = 0; j < len; ++j) {
              acc +=
                  prow[j] * vv[static_cast<size_t>(off + j) * dim + col0 + c];
            }
            orow[c] = acc;
          }
        }
      }
    }
  }
}

// Fused embedding gather + positional add (see simd.h). Three contiguous
// segment copies fused with the positional add into one pass per row:
// out[c] = e[c] + pos[c], elementwise in ascending order, so every level
// produces the same bits as the copy-then-add the op chain did.
template <typename V>
void EmbedGatherAddT(const float* __restrict e1, const float* __restrict e2,
                     const float* __restrict e3, const float* __restrict pos,
                     const int* __restrict ids1, const int* __restrict ids2,
                     const int* __restrict ids3,
                     const int* __restrict positions, float* __restrict out,
                     int rows, int d1, int d2, int d3) {
  constexpr int L = V::kLanes;
  const int d = d1 + d2 + d3;
  auto seg = [](const float* __restrict src, const float* __restrict add,
                float* __restrict dst, int n) {
    int c = 0;
    for (; c + L <= n; c += L) {
      V::Store(dst + c, V::Add(V::Load(src + c), V::Load(add + c)));
    }
    for (; c < n; ++c) dst[c] = src[c] + add[c];
  };
  for (int r = 0; r < rows; ++r) {
    float* __restrict row = out + static_cast<size_t>(r) * d;
    const float* __restrict prow =
        pos + static_cast<size_t>(positions[r]) * d;
    seg(e1 + static_cast<size_t>(ids1[r]) * d1, prow, row, d1);
    seg(e2 + static_cast<size_t>(ids2[r]) * d2, prow + d1, row + d1, d2);
    seg(e3 + static_cast<size_t>(ids3[r]) * d3, prow + d1 + d2,
        row + d1 + d2, d3);
  }
}

// Head-blocked attention forward (see simd.h for the layouts). This is
// AttentionForwardPackedT with the per-sequence k^T repack hoisted out:
// the caller transposes K once per layer into kbt [head][head_dim][rows]
// and blocks V into vb [head][rows][head_dim], so the score loops stream
// kbt rows (stride total_rows instead of a per-sequence pack) and the
// context loops read contiguous head_dim lanes of vb instead of striding
// `dim` floats between value rows.
//
// The vector path additionally tiles queries by kQueryTile: serving
// sequences are short (tens of tokens) and head_dim is small, so a
// single-query loop is latency-bound — one serially dependent
// accumulator chain per output vector. Four queries share every kt/v
// load and run four independent chains, which is what moves this kernel
// from memory-latency-bound to throughput-bound at serving shapes.
// Tiling across queries never touches any single element's accumulation
// order (scores still sum ascending c, context ascending j, the scale
// is one multiply on the finished dot either way), so the kernel stays
// bit-identical to AttentionForwardPackedT at every level, and the
// scalar level remains bit-identical to per-plan Encode. With keep_probs
// each (sequence, head)'s probabilities land in their own block of the
// [seq][head][len][len] array the backward reads; otherwise one scratch
// block is reused.
template <typename V>
void AttentionForwardBlockedT(const float* __restrict qv,
                              const float* __restrict kbt,
                              const float* __restrict vb,
                              float* __restrict ov,
                              const int* __restrict offsets,
                              const int* __restrict lengths, int num_seqs,
                              int num_heads, int total_rows, int dim,
                              float scale, float* __restrict probs_base,
                              int keep_probs) {
  constexpr int L = V::kLanes;
  constexpr int kQueryTile = 4;
  const int dh = dim / num_heads;
  for (int s = 0; s < num_seqs; ++s) {
    const int off = offsets[s];
    const int len = lengths[s];
    const int lenv = (len / L) * L;
    for (int h = 0; h < num_heads; ++h) {
      const int col0 = h * dh;
      // This (sequence, head)'s probability block: the next slot of the
      // retained [seq][head][len][len] array, or the reused scratch.
      float* __restrict probs = probs_base;
      if (keep_probs) probs_base += static_cast<size_t>(len) * len;
      // This head's key block, transposed: row c holds k[:, col0 + c] with
      // stride total_rows; the sequence's columns start at offset `off`.
      const float* __restrict ktb =
          kbt + (static_cast<size_t>(h) * dh) * total_rows + off;
      // This head's value block: row j of the sequence is dh contiguous
      // floats.
      const float* __restrict vbb =
          vb + (static_cast<size_t>(h) * total_rows + off) * dh;
      // --- Phase 1: scaled score rows, query-tiled ---------------------
      if constexpr (L == 1) {
        for (int i = 0; i < len; ++i) {
          const float* __restrict qrow =
              qv + static_cast<size_t>(off + i) * dim + col0;
          float* __restrict prow = probs + static_cast<size_t>(i) * len;
          for (int j = 0; j < len; ++j) prow[j] = 0.0f;
          for (int c = 0; c < dh; ++c) {
            const float qc = qrow[c];
            const float* __restrict ktrow =
                ktb + static_cast<size_t>(c) * total_rows;
            for (int j = 0; j < len; ++j) prow[j] += qc * ktrow[j];
          }
          for (int j = 0; j < len; ++j) prow[j] *= scale;
        }
      } else {
        const auto zero = V::Broadcast(0.0f);
        const auto vs = V::Broadcast(scale);
        int i = 0;
        for (; i + kQueryTile <= len; i += kQueryTile) {
          const float* __restrict q0 =
              qv + static_cast<size_t>(off + i) * dim + col0;
          const float* __restrict q1 = q0 + dim;
          const float* __restrict q2 = q1 + dim;
          const float* __restrict q3 = q2 + dim;
          float* __restrict p0 = probs + static_cast<size_t>(i) * len;
          float* __restrict p1 = p0 + len;
          float* __restrict p2 = p1 + len;
          float* __restrict p3 = p2 + len;
          int j = 0;
          for (; j + L <= len; j += L) {
            auto a0 = zero;
            auto a1 = zero;
            auto a2 = zero;
            auto a3 = zero;
            for (int c = 0; c < dh; ++c) {
              const auto kt = V::Load(
                  ktb + static_cast<size_t>(c) * total_rows + j);
              a0 = V::Add(a0, V::Mul(V::Broadcast(q0[c]), kt));
              a1 = V::Add(a1, V::Mul(V::Broadcast(q1[c]), kt));
              a2 = V::Add(a2, V::Mul(V::Broadcast(q2[c]), kt));
              a3 = V::Add(a3, V::Mul(V::Broadcast(q3[c]), kt));
            }
            V::Store(p0 + j, V::Mul(a0, vs));
            V::Store(p1 + j, V::Mul(a1, vs));
            V::Store(p2 + j, V::Mul(a2, vs));
            V::Store(p3 + j, V::Mul(a3, vs));
          }
          if (j < len && len >= L) {
            // Overlapping tail vector: recompute the last full vector of
            // scores ending at `len`. Each overlapped element is the same
            // ascending-c dot as before, so the second store writes the
            // same bits — cheaper than a scalar tail and bit-identical.
            const int jt = len - L;
            auto a0 = zero;
            auto a1 = zero;
            auto a2 = zero;
            auto a3 = zero;
            for (int c = 0; c < dh; ++c) {
              const auto kt = V::Load(
                  ktb + static_cast<size_t>(c) * total_rows + jt);
              a0 = V::Add(a0, V::Mul(V::Broadcast(q0[c]), kt));
              a1 = V::Add(a1, V::Mul(V::Broadcast(q1[c]), kt));
              a2 = V::Add(a2, V::Mul(V::Broadcast(q2[c]), kt));
              a3 = V::Add(a3, V::Mul(V::Broadcast(q3[c]), kt));
            }
            V::Store(p0 + jt, V::Mul(a0, vs));
            V::Store(p1 + jt, V::Mul(a1, vs));
            V::Store(p2 + jt, V::Mul(a2, vs));
            V::Store(p3 + jt, V::Mul(a3, vs));
          } else {
            for (; j < len; ++j) {
              float c0 = 0, c1 = 0, c2 = 0, c3 = 0;
              for (int c = 0; c < dh; ++c) {
                const float kc = ktb[static_cast<size_t>(c) * total_rows + j];
                c0 += q0[c] * kc;
                c1 += q1[c] * kc;
                c2 += q2[c] * kc;
                c3 += q3[c] * kc;
              }
              p0[j] = c0 * scale;
              p1[j] = c1 * scale;
              p2[j] = c2 * scale;
              p3[j] = c3 * scale;
            }
          }
        }
        for (; i < len; ++i) {
          const float* __restrict qrow =
              qv + static_cast<size_t>(off + i) * dim + col0;
          float* __restrict prow = probs + static_cast<size_t>(i) * len;
          int j = 0;
          for (; j + L <= len; j += L) {
            auto a0 = zero;
            for (int c = 0; c < dh; ++c) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(qrow[c]),
                                     V::Load(ktb + static_cast<size_t>(c) *
                                                       total_rows +
                                             j)));
            }
            V::Store(prow + j, V::Mul(a0, vs));
          }
          if (j < len && len >= L) {
            const int jt = len - L;
            auto a0 = zero;
            for (int c = 0; c < dh; ++c) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(qrow[c]),
                                     V::Load(ktb + static_cast<size_t>(c) *
                                                       total_rows +
                                             jt)));
            }
            V::Store(prow + jt, V::Mul(a0, vs));
          } else {
            for (; j < len; ++j) {
              float acc = 0;
              for (int c = 0; c < dh; ++c) {
                acc += qrow[c] * ktb[static_cast<size_t>(c) * total_rows + j];
              }
              prow[j] = acc * scale;
            }
          }
        }
      }
      // --- Phase 2: row softmax — max, exp, sum, divide, the same split
      // as AttentionForwardPackedT (and SoftmaxRowsMaskedT) -------------
      for (int i = 0; i < len; ++i) {
        float* __restrict prow = probs + static_cast<size_t>(i) * len;
        float max_v = prow[0];
        {
          int j = 1;
          if (len >= L) {
            auto vmax = V::Load(prow);
            for (j = L; j + L <= len; j += L) {
              vmax = V::Max(vmax, V::Load(prow + j));
            }
            max_v = V::HMax(vmax);
          }
          for (; j < len; ++j) max_v = std::max(max_v, prow[j]);
        }
        {
          const auto vm = V::Broadcast(max_v);
          int j = 0;
          for (; j < lenv; j += L) {
            V::Store(prow + j, V::Exp(V::Sub(V::Load(prow + j), vm)));
          }
          for (; j < len; ++j) prow[j] = std::exp(prow[j] - max_v);
        }
        float sum = 0;
        for (int j = 0; j < len; ++j) sum += prow[j];
        {
          const auto vsum = V::Broadcast(sum);
          int j = 0;
          for (; j < lenv; j += L) {
            V::Store(prow + j, V::Div(V::Load(prow + j), vsum));
          }
          for (; j < len; ++j) prow[j] /= sum;
        }
      }
      // --- Phase 3: context = probs * vh over the contiguous rows of
      // this head's value block, query-tiled like the scores; per element
      // accumulates ascending j, like AttentionForwardPackedT ----------
      if constexpr (L == 1) {
        for (int i = 0; i < len; ++i) {
          const float* __restrict prow = probs + static_cast<size_t>(i) * len;
          float* __restrict orow =
              ov + static_cast<size_t>(off + i) * dim + col0;
          for (int c = 0; c < dh; ++c) orow[c] = 0.0f;
          for (int j = 0; j < len; ++j) {
            const float p = prow[j];
            const float* __restrict vrow = vbb + static_cast<size_t>(j) * dh;
            for (int c = 0; c < dh; ++c) orow[c] += p * vrow[c];
          }
        }
      } else {
        const int dhv = (dh / L) * L;
        const auto zero = V::Broadcast(0.0f);
        int i = 0;
        for (; i + kQueryTile <= len; i += kQueryTile) {
          const float* __restrict p0 = probs + static_cast<size_t>(i) * len;
          const float* __restrict p1 = p0 + len;
          const float* __restrict p2 = p1 + len;
          const float* __restrict p3 = p2 + len;
          float* __restrict o0 =
              ov + static_cast<size_t>(off + i) * dim + col0;
          float* __restrict o1 = o0 + dim;
          float* __restrict o2 = o1 + dim;
          float* __restrict o3 = o2 + dim;
          int c = 0;
          for (; c < dhv; c += L) {
            auto a0 = zero;
            auto a1 = zero;
            auto a2 = zero;
            auto a3 = zero;
            for (int j = 0; j < len; ++j) {
              const auto vrow =
                  V::Load(vbb + static_cast<size_t>(j) * dh + c);
              a0 = V::Add(a0, V::Mul(V::Broadcast(p0[j]), vrow));
              a1 = V::Add(a1, V::Mul(V::Broadcast(p1[j]), vrow));
              a2 = V::Add(a2, V::Mul(V::Broadcast(p2[j]), vrow));
              a3 = V::Add(a3, V::Mul(V::Broadcast(p3[j]), vrow));
            }
            V::Store(o0 + c, a0);
            V::Store(o1 + c, a1);
            V::Store(o2 + c, a2);
            V::Store(o3 + c, a3);
          }
          if (c < dh && dh >= L) {
            // Overlapping tail vector over the last L head columns: the
            // overlapped lanes redo the same ascending-j sums and store
            // the same bits (see the score tail above).
            const int ct = dh - L;
            auto a0 = zero;
            auto a1 = zero;
            auto a2 = zero;
            auto a3 = zero;
            for (int j = 0; j < len; ++j) {
              const auto vrow =
                  V::Load(vbb + static_cast<size_t>(j) * dh + ct);
              a0 = V::Add(a0, V::Mul(V::Broadcast(p0[j]), vrow));
              a1 = V::Add(a1, V::Mul(V::Broadcast(p1[j]), vrow));
              a2 = V::Add(a2, V::Mul(V::Broadcast(p2[j]), vrow));
              a3 = V::Add(a3, V::Mul(V::Broadcast(p3[j]), vrow));
            }
            V::Store(o0 + ct, a0);
            V::Store(o1 + ct, a1);
            V::Store(o2 + ct, a2);
            V::Store(o3 + ct, a3);
          } else {
            for (; c < dh; ++c) {
              float c0 = 0, c1 = 0, c2 = 0, c3 = 0;
              for (int j = 0; j < len; ++j) {
                const float vv = vbb[static_cast<size_t>(j) * dh + c];
                c0 += p0[j] * vv;
                c1 += p1[j] * vv;
                c2 += p2[j] * vv;
                c3 += p3[j] * vv;
              }
              o0[c] = c0;
              o1[c] = c1;
              o2[c] = c2;
              o3[c] = c3;
            }
          }
        }
        for (; i < len; ++i) {
          const float* __restrict prow = probs + static_cast<size_t>(i) * len;
          float* __restrict orow =
              ov + static_cast<size_t>(off + i) * dim + col0;
          int c = 0;
          for (; c < dhv; c += L) {
            auto a0 = zero;
            for (int j = 0; j < len; ++j) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(prow[j]),
                                     V::Load(vbb + static_cast<size_t>(j) * dh +
                                             c)));
            }
            V::Store(orow + c, a0);
          }
          if (c < dh && dh >= L) {
            const int ct = dh - L;
            auto a0 = zero;
            for (int j = 0; j < len; ++j) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(prow[j]),
                                     V::Load(vbb + static_cast<size_t>(j) * dh +
                                             ct)));
            }
            V::Store(orow + ct, a0);
          } else {
            for (; c < dh; ++c) {
              float acc = 0;
              for (int j = 0; j < len; ++j) {
                acc += prow[j] * vbb[static_cast<size_t>(j) * dh + c];
              }
              orow[c] = acc;
            }
          }
        }
      }
    }
  }
}

// --- Backward kernel bodies ------------------------------------------
//
// Width-1 instantiations reproduce the pre-SIMD backward closures of
// nn/tensor.cc statement for statement (the scalar table is the training
// bit-exactness reference, just as for the forwards). The vector paths
// follow the same discipline as the forwards: lanes run across
// independent gradient elements, never across a reduction, and every
// reduction keeps its scalar ascending order inside each lane. Gradient
// buffers have one extra invariant the vector paths lean on: a grad
// buffer starts zero-filled (+0) and is only ever accumulated into, and
// under round-to-nearest a sum can only produce -0 when both operands
// are -0 — so by induction a grad element is never -0, and adding a +/-0
// term to it leaves its bits unchanged. That is what makes the masked
// adds in BiasActBackwardT bit-safe.

// Register tile of the input-gradient GEMM: NV vectors of dA columns
// starting at p, each lane one complete ascending-j dot from zero over the
// transposed B panel btv [n, k], added to dA once.
template <typename V, int NV>
inline void MatMulBackwardATile(const float* __restrict orow,
                                const float* __restrict btv,
                                float* __restrict arow, int p, int k, int n) {
  constexpr int L = V::kLanes;
  typename V::Vec acc[NV];
#pragma GCC unroll 8
  for (int t = 0; t < NV; ++t) acc[t] = V::Broadcast(0.0f);
  for (int j = 0; j < n; ++j) {
    const float* __restrict btrow = btv + static_cast<size_t>(j) * k + p;
    const auto vo = V::Broadcast(orow[j]);
#pragma GCC unroll 8
    for (int t = 0; t < NV; ++t) {
      acc[t] = V::Add(acc[t], V::Mul(vo, V::Load(btrow + t * L)));
    }
  }
#pragma GCC unroll 8
  for (int t = 0; t < NV; ++t) {
    V::Store(arow + p + t * L, V::Add(V::Load(arow + p + t * L), acc[t]));
  }
}

// dA[i0:i1, :] += dOut[i0:i1, :] * B^T. The seed closure computes each
// dA element as one complete ascending-j dot in a register, added to dA
// once — note this is *not* the forward's accumulate-into-out shape, so
// the vector path cannot reuse MatMulForwardRangeT. Instead it runs
// register-tiled lanes across the p (dA column) dimension over a
// transposed copy of B: each lane's dot still starts at zero and
// accumulates ascending j, followed by the one final add, so every level
// produces the seed's bits. Tiles hold up to six independent vector
// accumulators, so the model width (k = 48 at AVX2) runs in one pass
// instead of one wide tile plus latency-bound single-vector tails. The
// transpose is pure data movement (never rounds) into a thread-local
// scratch, rebuilt per ParallelFor range — ranges are capped at 4x the
// thread count, and the training matrices are small enough (k, n <= a few
// hundred) that the repack is noise next to the O(m*k*n) dots it unlocks.
template <typename V>
void MatMulBackwardAT(const float* __restrict og, const float* __restrict bv,
                      float* __restrict ag, int i0, int i1, int k, int n) {
  constexpr int L = V::kLanes;
  if constexpr (L == 1) {
    for (int i = i0; i < i1; ++i) {
      const float* __restrict orow = og + static_cast<size_t>(i) * n;
      float* __restrict arow = ag + static_cast<size_t>(i) * k;
      for (int p = 0; p < k; ++p) {
        const float* __restrict brow = bv + static_cast<size_t>(p) * n;
        float dot = 0.0f;
        for (int j = 0; j < n; ++j) dot += orow[j] * brow[j];
        arow[p] += dot;
      }
    }
  } else {
    static thread_local std::vector<float> bt;  // B^T scratch, [n, k]
    bt.resize(static_cast<size_t>(n) * k);
    float* __restrict btv = bt.data();
    for (int j = 0; j < n; ++j) {
      float* __restrict btrow = btv + static_cast<size_t>(j) * k;
      for (int p = 0; p < k; ++p) {
        btrow[p] = bv[static_cast<size_t>(p) * n + j];
      }
    }
    const int kv = (k / L) * L;
    for (int i = i0; i < i1; ++i) {
      const float* __restrict orow = og + static_cast<size_t>(i) * n;
      float* __restrict arow = ag + static_cast<size_t>(i) * k;
      int p = 0;
      for (; p + 6 * L <= kv; p += 6 * L) {
        MatMulBackwardATile<V, 6>(orow, btv, arow, p, k, n);
      }
      switch ((kv - p) / L) {
        case 5:
          MatMulBackwardATile<V, 5>(orow, btv, arow, p, k, n);
          break;
        case 4:
          MatMulBackwardATile<V, 4>(orow, btv, arow, p, k, n);
          break;
        case 3:
          MatMulBackwardATile<V, 3>(orow, btv, arow, p, k, n);
          break;
        case 2:
          MatMulBackwardATile<V, 2>(orow, btv, arow, p, k, n);
          break;
        case 1:
          MatMulBackwardATile<V, 1>(orow, btv, arow, p, k, n);
          break;
        default:
          break;
      }
      for (p = kv; p < k; ++p) {
        float dot = 0.0f;
        for (int j = 0; j < n; ++j) {
          dot += orow[j] * btv[static_cast<size_t>(j) * k + p];
        }
        arow[p] += dot;
      }
    }
  }
}

// Register tile of the weight-gradient GEMM: NV vectors of one dB row
// starting at column j, loaded once, accumulating the rank-1 terms
// a * dOut[i, j:] in ascending i, stored once. The rows i are either all
// of [0, m) (nz_i null: column p of A has no zero) or the compacted list
// nz_i[0, count) of rows whose entry is nonzero.
template <typename V, int NV>
inline void MatMulBackwardBTile(const float* __restrict acol, int k,
                                const float* __restrict og,
                                const int* __restrict nz_i, int count,
                                float* __restrict brow, int j, int n) {
  constexpr int L = V::kLanes;
  typename V::Vec acc[NV];
#pragma GCC unroll 8
  for (int t = 0; t < NV; ++t) acc[t] = V::Load(brow + j + t * L);
  for (int e = 0; e < count; ++e) {
    const size_t i = nz_i != nullptr ? static_cast<size_t>(nz_i[e]) : e;
    const float* __restrict orow = og + i * n + j;
    const auto va = V::Broadcast(acol[i * k]);
#pragma GCC unroll 8
    for (int t = 0; t < NV; ++t) {
      acc[t] = V::Add(acc[t], V::Mul(va, V::Load(orow + t * L)));
    }
  }
#pragma GCC unroll 8
  for (int t = 0; t < NV; ++t) V::Store(brow + j + t * L, acc[t]);
}

// dB[p0:p1, :] += (A^T * dOut)[p0:p1, :] as rank-1 row updates: per
// output element the i dimension accumulates in ascending order
// regardless of the p partition, and the seed's aval == 0 skip (ReLU
// inputs are often sparse) is kept at every level — the surviving value
// subsequence is identical, so so are the bits. The width-1 policy keeps
// the seed's i-outer loop. Vector levels go p-outer: column p of A is
// first compacted into its nonzero (i, aval) pairs in ascending i, then a
// tile of up to six vectors of dB row p stays in registers across that
// whole list — each element still starts from its memory value and adds
// the same products in the same order, but is loaded and stored once
// instead of once per row, and a ReLU-sparse A costs only its nonzeros.
template <typename V>
void MatMulBackwardBT(const float* __restrict av, const float* __restrict og,
                      float* __restrict bg, int p0, int p1, int m, int k,
                      int n) {
  constexpr int L = V::kLanes;
  if constexpr (L == 1) {
    for (int i = 0; i < m; ++i) {
      const float* __restrict arow = av + static_cast<size_t>(i) * k;
      const float* __restrict orow = og + static_cast<size_t>(i) * n;
      for (int p = p0; p < p1; ++p) {
        const float aval = arow[p];
        if (aval == 0.0f) continue;
        float* __restrict brow = bg + static_cast<size_t>(p) * n;
        for (int j = 0; j < n; ++j) brow[j] += aval * orow[j];
      }
    }
  } else {
    static thread_local std::vector<int> nz_iv;
    static thread_local std::vector<int> zeros_v;
    nz_iv.resize(static_cast<size_t>(m));
    zeros_v.assign(static_cast<size_t>(p1 - p0), 0);
    // Zeros per column of A, counted row-major (contiguous, so the
    // compiler vectorizes it): a column without zeros (any non-ReLU
    // input) runs over all rows, the others compact their nonzero rows
    // first, branch-free since ReLU zeros are unpredictable.
    int* __restrict zeros = zeros_v.data();
    for (int i = 0; i < m; ++i) {
      const float* __restrict arow = av + static_cast<size_t>(i) * k + p0;
      for (int p = 0; p < p1 - p0; ++p) zeros[p] += arow[p] == 0.0f;
    }
    const int nv = (n / L) * L;
    for (int p = p0; p < p1; ++p) {
      const float* __restrict acol = av + p;
      const int* nz_i = nullptr;
      int count = m;
      if (zeros[p - p0] != 0) {
        int* __restrict list = nz_iv.data();
        count = 0;
        for (int i = 0; i < m; ++i) {
          list[count] = i;
          count += acol[static_cast<size_t>(i) * k] != 0.0f ? 1 : 0;
        }
        nz_i = list;
      }
      if (count == 0) continue;
      float* __restrict brow = bg + static_cast<size_t>(p) * n;
      int j = 0;
      for (; j + 6 * L <= nv; j += 6 * L) {
        MatMulBackwardBTile<V, 6>(acol, k, og, nz_i, count, brow, j, n);
      }
      switch ((nv - j) / L) {
        case 5:
          MatMulBackwardBTile<V, 5>(acol, k, og, nz_i, count, brow, j, n);
          break;
        case 4:
          MatMulBackwardBTile<V, 4>(acol, k, og, nz_i, count, brow, j, n);
          break;
        case 3:
          MatMulBackwardBTile<V, 3>(acol, k, og, nz_i, count, brow, j, n);
          break;
        case 2:
          MatMulBackwardBTile<V, 2>(acol, k, og, nz_i, count, brow, j, n);
          break;
        case 1:
          MatMulBackwardBTile<V, 1>(acol, k, og, nz_i, count, brow, j, n);
          break;
        default:
          break;
      }
      for (j = nv; j < n; ++j) {
        float acc = brow[j];
        for (int e = 0; e < count; ++e) {
          const size_t i = nz_i != nullptr ? static_cast<size_t>(nz_i[e]) : e;
          acc += acol[i * k] * og[i * n + j];
        }
        brow[j] = acc;
      }
    }
  }
}

// Backward of bias_relu, gated on the forward *output* (ov > 0 iff the
// pre-activation was > 0). The vector path turns the branch into a mask:
// gated lanes contribute And(og, 0) == +0, and adding +/-0 to a grad
// element never changes its bits (grad buffers are never -0, see the
// header note above) — so the masked add is bit-identical to the seed's
// skip. bg accumulates rows in ascending order per column either way.
// NaN forward outputs (already diverged training) gate differently
// between the quiet vector compare and the scalar `<= 0`, matching the
// forward kernels' NaN posture.
template <typename V>
void BiasActBackwardT(const float* __restrict ov, const float* __restrict og,
                      float* __restrict ag, float* __restrict bg, int m,
                      int n) {
  constexpr int L = V::kLanes;
  if constexpr (L == 1) {
    for (int r = 0; r < m; ++r) {
      const size_t base = static_cast<size_t>(r) * n;
      for (int c = 0; c < n; ++c) {
        if (ov[base + c] <= 0) continue;
        const float g = og[base + c];
        if (ag) ag[base + c] += g;
        if (bg) bg[c] += g;
      }
    }
  } else {
    const int nv = (n / L) * L;
    for (int r = 0; r < m; ++r) {
      const float* __restrict ovr = ov + static_cast<size_t>(r) * n;
      const float* __restrict ogr = og + static_cast<size_t>(r) * n;
      float* __restrict agr = ag ? ag + static_cast<size_t>(r) * n : nullptr;
      int c = 0;
      for (; c < nv; c += L) {
        const auto g = V::And(V::Load(ogr + c), V::GtZero(V::Load(ovr + c)));
        if (agr) V::Store(agr + c, V::Add(V::Load(agr + c), g));
        if (bg) V::Store(bg + c, V::Add(V::Load(bg + c), g));
      }
      for (; c < n; ++c) {
        if (ovr[c] <= 0) continue;
        const float g = ogr[c];
        if (agr) agr[c] += g;
        if (bg) bg[c] += g;
      }
    }
  }
}

// Backward of layer_norm_rows. Row statistics recompute through the
// shared LayerNormRowStats (same bits as the forward), and the m1/m2
// reductions stay scalar ascending at every level. The gamma/beta and
// input-gradient passes are elementwise: hoisting them out of the
// reduction loop (vector levels) touches each gg[c]/bg[c] element once
// per row in the same ascending row order, so their bits are unchanged,
// and the xg expression keeps the seed's exact operation tree
// recip * ((dy * gamma - m1) - xhat * m2).
template <typename V>
void LayerNormRowsBackwardT(const float* __restrict xv,
                            const float* __restrict gv,
                            const float* __restrict og, float* __restrict xg,
                            float* __restrict gg, float* __restrict bg, int m,
                            int n, float invn) {
  constexpr int L = V::kLanes;
  for (int r = 0; r < m; ++r) {
    const float* __restrict xrow = xv + static_cast<size_t>(r) * n;
    const float* __restrict grow = og + static_cast<size_t>(r) * n;
    float mean, recip;
    LayerNormRowStats(xrow, n, invn, &mean, &recip);
    float m1 = 0, m2 = 0;
    if constexpr (L == 1) {
      for (int c = 0; c < n; ++c) {
        const float xhat = (xrow[c] - mean) * recip;
        const float dxhat = grow[c] * gv[c];
        m1 += dxhat;
        m2 += dxhat * xhat;
        if (gg) gg[c] += grow[c] * xhat;
        if (bg) bg[c] += grow[c];
      }
    } else {
      for (int c = 0; c < n; ++c) {
        const float xhat = (xrow[c] - mean) * recip;
        const float dxhat = grow[c] * gv[c];
        m1 += dxhat;
        m2 += dxhat * xhat;
      }
      const int nv = (n / L) * L;
      const auto vmean = V::Broadcast(mean);
      const auto vrecip = V::Broadcast(recip);
      int c = 0;
      for (; c < nv; c += L) {
        const auto g = V::Load(grow + c);
        if (gg) {
          const auto xhat =
              V::Mul(V::Sub(V::Load(xrow + c), vmean), vrecip);
          V::Store(gg + c, V::Add(V::Load(gg + c), V::Mul(g, xhat)));
        }
        if (bg) V::Store(bg + c, V::Add(V::Load(bg + c), g));
      }
      for (; c < n; ++c) {
        const float xhat = (xrow[c] - mean) * recip;
        if (gg) gg[c] += grow[c] * xhat;
        if (bg) bg[c] += grow[c];
      }
    }
    if (xg == nullptr) continue;
    m1 *= invn;
    m2 *= invn;
    float* __restrict xgrow = xg + static_cast<size_t>(r) * n;
    if constexpr (L == 1) {
      for (int c = 0; c < n; ++c) {
        const float xhat = (xrow[c] - mean) * recip;
        xgrow[c] += recip * (grow[c] * gv[c] - m1 - xhat * m2);
      }
    } else {
      const int nv = (n / L) * L;
      const auto vmean = V::Broadcast(mean);
      const auto vrecip = V::Broadcast(recip);
      const auto vm1 = V::Broadcast(m1);
      const auto vm2 = V::Broadcast(m2);
      int c = 0;
      for (; c < nv; c += L) {
        const auto xhat = V::Mul(V::Sub(V::Load(xrow + c), vmean), vrecip);
        const auto t = V::Sub(
            V::Sub(V::Mul(V::Load(grow + c), V::Load(gv + c)), vm1),
            V::Mul(xhat, vm2));
        V::Store(xgrow + c, V::Add(V::Load(xgrow + c), V::Mul(vrecip, t)));
      }
      for (; c < n; ++c) {
        const float xhat = (xrow[c] - mean) * recip;
        xgrow[c] += recip * (grow[c] * gv[c] - m1 - xhat * m2);
      }
    }
  }
}

// Backward of softmax_rows_masked: the y*gy dot stays scalar ascending
// (reduction); the gx pass is elementwise and vectorizes bit-identically.
template <typename V>
void SoftmaxRowsMaskedBackwardT(const float* __restrict yv,
                                const float* __restrict gy,
                                float* __restrict gx,
                                const int* __restrict valid, int m, int n) {
  constexpr int L = V::kLanes;
  for (int r = 0; r < m; ++r) {
    const int v = std::min(std::max(valid[r], 0), n);
    const float* __restrict y = yv + static_cast<size_t>(r) * n;
    const float* __restrict gyr = gy + static_cast<size_t>(r) * n;
    float* __restrict gxr = gx + static_cast<size_t>(r) * n;
    float dot = 0;
    for (int c = 0; c < v; ++c) dot += y[c] * gyr[c];
    if constexpr (L == 1) {
      for (int c = 0; c < v; ++c) gxr[c] += y[c] * (gyr[c] - dot);
    } else {
      const auto vdot = V::Broadcast(dot);
      int c = 0;
      for (; c + L <= v; c += L) {
        V::Store(gxr + c,
                 V::Add(V::Load(gxr + c),
                        V::Mul(V::Load(y + c), V::Sub(V::Load(gyr + c), vdot))));
      }
      for (; c < v; ++c) gxr[c] += y[c] * (gyr[c] - dot);
    }
  }
}

// One register tile of a small accumulating product: out[r, c] += sum
// over t ascending of a(r, t) * b[t, c] for R rows, lanes across columns
// at the NV offsets coff. The last offset may overlap its neighbour by up
// to L - 1 lanes when the width is not a multiple of L: both vectors start
// from the same memory values and add the same products, so the
// overlapped lanes store equal bits. a(r, t) is a[r * ars + t * ats], row
// t of b starts at b + t * bs, row r of out at out + r * os. Each element
// starts from its memory value and adds its terms in ascending t, one mul
// then one add each — the seed's per-element axpy sequence with the loads
// and stores hoisted out of the t loop.
template <typename V, int R, int NV>
inline void AddProductTile(const float* __restrict a, size_t ars, size_t ats,
                           const float* __restrict b, size_t bs,
                           float* __restrict out, size_t os, int nt,
                           const int* __restrict coff) {
  typename V::Vec acc[R][NV];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) acc[r][v] = V::Load(out + r * os + coff[v]);
  }
  for (int t = 0; t < nt; ++t) {
    const float* __restrict brow = b + t * bs;
    typename V::Vec bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) bv[v] = V::Load(brow + coff[v]);
    const float* __restrict acol = a + t * ats;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const auto va = V::Broadcast(acol[r * ars]);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = V::Add(acc[r][v], V::Mul(va, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) V::Store(out + r * os + coff[v], acc[r][v]);
  }
}

// AddProductTile over all nr rows: tiles of four, then one tile of the
// one to three rows left, so every tile keeps at least NV * R independent
// accumulator chains.
template <typename V, int NV>
void AddProductRows(const float* __restrict a, size_t ars, size_t ats,
                    const float* __restrict b, size_t bs,
                    float* __restrict out, size_t os, int nr, int nt,
                    const int* __restrict coff) {
  int r = 0;
  for (; r + 4 <= nr; r += 4) {
    AddProductTile<V, 4, NV>(a + r * ars, ars, ats, b, bs, out + r * os, os,
                             nt, coff);
  }
  a += r * ars;
  out += r * os;
  switch (nr - r) {
    case 3:
      AddProductTile<V, 3, NV>(a, ars, ats, b, bs, out, os, nt, coff);
      break;
    case 2:
      AddProductTile<V, 2, NV>(a, ars, ats, b, bs, out, os, nt, coff);
      break;
    case 1:
      AddProductTile<V, 1, NV>(a, ars, ats, b, bs, out, os, nt, coff);
      break;
    default:
      break;
  }
}

// out[r, c] += sum_t a(r, t) * b[t, c] for r in [0, nr), c in [0, w), t
// ascending in [0, nt) (operand layout as in AddProductTile), in column
// chunks of two vectors taken from the right so an overlapping last
// vector always shares a tile with the vector it overlaps. Widths
// narrower than one vector run the same per-element sequence in scalar
// code.
template <typename V>
void AddProduct(const float* __restrict a, size_t ars, size_t ats,
                const float* __restrict b, size_t bs, float* __restrict out,
                size_t os, int nr, int nt, int w) {
  constexpr int L = V::kLanes;
  if (w < L) {
    for (int r = 0; r < nr; ++r) {
      float* __restrict orow = out + r * os;
      for (int c = 0; c < w; ++c) {
        float acc = orow[c];
        for (int t = 0; t < nt; ++t) {
          acc += a[r * ars + t * ats] * b[t * bs + c];
        }
        orow[c] = acc;
      }
    }
    return;
  }
  const int nvec = (w + L - 1) / L;
  for (int v1 = nvec; v1 > 0; v1 -= 2) {
    const int v0 = std::max(0, v1 - 2);
    int coff[2];
    for (int v = v0; v < v1; ++v) coff[v - v0] = std::min(v * L, w - L);
    if (v1 - v0 == 2) {
      AddProductRows<V, 2>(a, ars, ats, b, bs, out, os, nr, nt, coff);
    } else {
      AddProductRows<V, 1>(a, ars, ats, b, bs, out, os, nr, nt, coff);
    }
  }
}

// Backward of the packed attention forwards. `probs` holds the softmax
// probabilities the forward computed, one [len, len] block per (sequence,
// head) back to back ([seq][head][len][len], heads x sum len^2 floats —
// see attention_backward_packed in simd.h); nothing is recomputed. The
// gradient phases keep the seed's accumulation orders per element:
// d_probs is a dot over the head columns, ascending c from zero; the
// softmax backward's row dot is scalar ascending j; and every element of
// qg / kg / vg starts from its memory value and adds its terms in
// ascending query (kg, vg) or key (qg) order. The width-1 policy runs the
// seed loops. Vector levels form d_probs with lanes across key positions
// over a zero-padded transposed value pack, keep four softmax row dots in
// flight as independent scalar chains, and form vg, qg and kg with lanes
// across the head columns — all four as register-tiled AddProduct calls.
// The scratch is thread-local and grows to the high-water shape.
template <typename V>
void AttentionBackwardPackedT(const float* __restrict qv,
                              const float* __restrict kv,
                              const float* __restrict vv,
                              const float* __restrict og,
                              const float* __restrict probs,
                              float* __restrict qg, float* __restrict kg,
                              float* __restrict vg,
                              const int* __restrict offsets,
                              const int* __restrict lengths, int num_seqs,
                              int num_heads, int dim, float scale) {
  constexpr int L = V::kLanes;
  constexpr int kQueryTile = 4;
  const int dh = dim / num_heads;
  static thread_local std::vector<float> scratch;
  const float* __restrict pblock = probs;
  for (int s = 0; s < num_seqs; ++s) {
    const int off = offsets[s];
    const int len = lengths[s];
    // Row stride of the d_probs / d_scores scratch: padded to whole
    // vectors at vector levels, and the transposed value pack behind it.
    const int lp = ((len + L - 1) / L) * L;
    const size_t dsize = static_cast<size_t>(len) * lp;
    const size_t need =
        dsize + (L == 1 ? 0 : static_cast<size_t>(dh) * lp);
    if (scratch.size() < need) scratch.resize(need);
    float* __restrict ds = scratch.data();
    float* __restrict vt = scratch.data() + dsize;
    const size_t block = static_cast<size_t>(len) * len;
    for (int h = 0; h < num_heads; ++h, pblock += block) {
      const int col0 = h * dh;
      const float* __restrict gbase =
          og + static_cast<size_t>(off) * dim + col0;
      if constexpr (L == 1) {
        for (int i = 0; i < len; ++i) {
          const float* __restrict prow = pblock + static_cast<size_t>(i) * len;
          float* __restrict dprow = ds + static_cast<size_t>(i) * len;
          const float* __restrict grow = gbase + static_cast<size_t>(i) * dim;
          // d_probs = d_ctx * vh^T; d_vh += probs^T * d_ctx.
          for (int j = 0; j < len; ++j) {
            const float* __restrict vrow =
                vv + static_cast<size_t>(off + j) * dim + col0;
            float dp = 0;
            for (int c = 0; c < dh; ++c) dp += grow[c] * vrow[c];
            dprow[j] = dp;
            if (vg) {
              float* __restrict vgrow =
                  vg + static_cast<size_t>(off + j) * dim + col0;
              const float p = prow[j];
              for (int c = 0; c < dh; ++c) vgrow[c] += p * grow[c];
            }
          }
          // Softmax backward, then the post-softmax Scale folds into the
          // score gradient: d_scores = scale * p * (dp - sum(p * dp)).
          float dot = 0;
          for (int j = 0; j < len; ++j) dot += prow[j] * dprow[j];
          for (int j = 0; j < len; ++j) {
            dprow[j] = scale * prow[j] * (dprow[j] - dot);
          }
          // d_qh += d_scores * kh; d_kh += d_scores^T * qh.
          const float* __restrict qrow =
              qv + static_cast<size_t>(off + i) * dim + col0;
          float* __restrict qgrow =
              qg ? qg + static_cast<size_t>(off + i) * dim + col0 : nullptr;
          for (int j = 0; j < len; ++j) {
            const float d = dprow[j];
            const float* __restrict krow =
                kv + static_cast<size_t>(off + j) * dim + col0;
            if (qgrow) {
              for (int c = 0; c < dh; ++c) qgrow[c] += d * krow[c];
            }
            if (kg) {
              float* __restrict kgrow =
                  kg + static_cast<size_t>(off + j) * dim + col0;
              for (int c = 0; c < dh; ++c) kgrow[c] += d * qrow[c];
            }
          }
        }
      } else {
        // Transposed value pack [dh][lp], zero in the padding lanes.
        for (int c = 0; c < dh; ++c) {
          float* __restrict vtrow = vt + static_cast<size_t>(c) * lp;
          for (int j = 0; j < len; ++j) {
            vtrow[j] = vv[static_cast<size_t>(off + j) * dim + col0 + c];
          }
          for (int j = len; j < lp; ++j) vtrow[j] = 0.0f;
        }
        // --- d_probs[i, j] = sum_c g[i, c] * v[j, c]: each lane's dot
        // starts from the zeroed scratch and accumulates ascending c. ----
        std::fill_n(ds, dsize, 0.0f);
        AddProduct<V>(gbase, dim, 1, vt, lp, ds, lp, len, dh, lp);
        // --- Softmax backward, d_scores = scale * p * (dp - sum(p * dp)),
        // in place over d_probs. The row dots stay scalar ascending j;
        // four rows run as independent chains. Padding lanes are never
        // read past this point. -----------------------------------------
        const int lenv = (len / L) * L;
        const auto vscale = V::Broadcast(scale);
        int i = 0;
        auto scores = [&](int row, float dot) {
          const float* __restrict prow =
              pblock + static_cast<size_t>(row) * len;
          float* __restrict dprow = ds + static_cast<size_t>(row) * lp;
          const auto vdot = V::Broadcast(dot);
          int j = 0;
          for (; j < lenv; j += L) {
            V::Store(dprow + j,
                     V::Mul(V::Mul(vscale, V::Load(prow + j)),
                            V::Sub(V::Load(dprow + j), vdot)));
          }
          for (; j < len; ++j) dprow[j] = scale * prow[j] * (dprow[j] - dot);
        };
        for (; i + kQueryTile <= len; i += kQueryTile) {
          const float* __restrict p0 = pblock + static_cast<size_t>(i) * len;
          const float* __restrict d0 = ds + static_cast<size_t>(i) * lp;
          float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
          for (int j = 0; j < len; ++j) {
            s0 += p0[j] * d0[j];
            s1 += p0[len + j] * d0[lp + j];
            s2 += p0[2 * len + j] * d0[2 * lp + j];
            s3 += p0[3 * len + j] * d0[3 * lp + j];
          }
          scores(i, s0);
          scores(i + 1, s1);
          scores(i + 2, s2);
          scores(i + 3, s3);
        }
        for (; i < len; ++i) {
          const float* __restrict prow = pblock + static_cast<size_t>(i) * len;
          const float* __restrict dprow = ds + static_cast<size_t>(i) * lp;
          float dot = 0;
          for (int j = 0; j < len; ++j) dot += prow[j] * dprow[j];
          scores(i, dot);
        }
        // --- Gradient products -----------------------------------------
        const size_t stride = static_cast<size_t>(dim);
        const size_t base = static_cast<size_t>(off) * dim + col0;
        // vg[j, c] += sum_i p[i, j] * g[i, c]
        if (vg) {
          AddProduct<V>(pblock, 1, len, gbase, stride, vg + base, stride, len,
                        len, dh);
        }
        // qg[i, c] += sum_j ds[i, j] * k[j, c]
        if (qg) {
          AddProduct<V>(ds, lp, 1, kv + base, stride, qg + base, stride, len,
                        len, dh);
        }
        // kg[j, c] += sum_i ds[i, j] * q[i, c]
        if (kg) {
          AddProduct<V>(ds, 1, lp, qv + base, stride, kg + base, stride, len,
                        len, dh);
        }
      }
    }
  }
}

// Fused Adam/AdamW update (the adam_step contract). Elementwise over
// independent lanes with correctly rounded mul/add/sub/div/sqrt only, so
// the vector path is bit-identical to the scalar loop as long as it keeps
// the scalar expression tree: products and quotients associate exactly as
// written below — in particular (1 - beta2) * g * g multiplies left to
// right. The weight-decay branch is hoisted out of the loop: the decayed
// expression must never run with weight_decay == 0 (0 * value would turn
// the tree into different bits), mirroring the Adam/AdamW split the
// optimizer had before the kernel existed.
template <typename V>
void AdamStepT(float* __restrict value, const float* __restrict grad,
               float* __restrict m, float* __restrict v, size_t n, float lr,
               float beta1, float beta2, float eps, float bias1, float bias2,
               float weight_decay) {
  constexpr int L = V::kLanes;
  if constexpr (L == 1) {
    if (weight_decay == 0.0f) {
      for (size_t j = 0; j < n; ++j) {
        m[j] = beta1 * m[j] + (1.0f - beta1) * grad[j];
        v[j] = beta2 * v[j] + (1.0f - beta2) * grad[j] * grad[j];
        const float m_hat = m[j] / bias1;
        const float v_hat = v[j] / bias2;
        value[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      }
    } else {
      for (size_t j = 0; j < n; ++j) {
        m[j] = beta1 * m[j] + (1.0f - beta1) * grad[j];
        v[j] = beta2 * v[j] + (1.0f - beta2) * grad[j] * grad[j];
        const float m_hat = m[j] / bias1;
        const float v_hat = v[j] / bias2;
        value[j] -=
            lr * (m_hat / (std::sqrt(v_hat) + eps) + weight_decay * value[j]);
      }
    }
  } else {
    const auto vb1 = V::Broadcast(beta1);
    const auto vomb1 = V::Broadcast(1.0f - beta1);
    const auto vb2 = V::Broadcast(beta2);
    const auto vomb2 = V::Broadcast(1.0f - beta2);
    const auto vbias1 = V::Broadcast(bias1);
    const auto vbias2 = V::Broadcast(bias2);
    const auto vlr = V::Broadcast(lr);
    const auto veps = V::Broadcast(eps);
    const size_t nv = (n / L) * L;
    size_t j = 0;
    if (weight_decay == 0.0f) {
      for (; j < nv; j += L) {
        const auto g = V::Load(grad + j);
        const auto mj =
            V::Add(V::Mul(vb1, V::Load(m + j)), V::Mul(vomb1, g));
        const auto vj = V::Add(V::Mul(vb2, V::Load(v + j)),
                               V::Mul(V::Mul(vomb2, g), g));
        V::Store(m + j, mj);
        V::Store(v + j, vj);
        const auto m_hat = V::Div(mj, vbias1);
        const auto v_hat = V::Div(vj, vbias2);
        const auto upd =
            V::Div(V::Mul(vlr, m_hat), V::Add(V::Sqrt(v_hat), veps));
        V::Store(value + j, V::Sub(V::Load(value + j), upd));
      }
      for (; j < n; ++j) {
        m[j] = beta1 * m[j] + (1.0f - beta1) * grad[j];
        v[j] = beta2 * v[j] + (1.0f - beta2) * grad[j] * grad[j];
        const float m_hat = m[j] / bias1;
        const float v_hat = v[j] / bias2;
        value[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      }
    } else {
      const auto vwd = V::Broadcast(weight_decay);
      for (; j < nv; j += L) {
        const auto g = V::Load(grad + j);
        const auto mj =
            V::Add(V::Mul(vb1, V::Load(m + j)), V::Mul(vomb1, g));
        const auto vj = V::Add(V::Mul(vb2, V::Load(v + j)),
                               V::Mul(V::Mul(vomb2, g), g));
        V::Store(m + j, mj);
        V::Store(v + j, vj);
        const auto m_hat = V::Div(mj, vbias1);
        const auto v_hat = V::Div(vj, vbias2);
        const auto val = V::Load(value + j);
        const auto upd = V::Mul(
            vlr, V::Add(V::Div(m_hat, V::Add(V::Sqrt(v_hat), veps)),
                        V::Mul(vwd, val)));
        V::Store(value + j, V::Sub(val, upd));
      }
      for (; j < n; ++j) {
        m[j] = beta1 * m[j] + (1.0f - beta1) * grad[j];
        v[j] = beta2 * v[j] + (1.0f - beta2) * grad[j] * grad[j];
        const float m_hat = m[j] / bias1;
        const float v_hat = v[j] / bias2;
        value[j] -=
            lr * (m_hat / (std::sqrt(v_hat) + eps) + weight_decay * value[j]);
      }
    }
  }
}

// One quantization step of the quantize_buffer contract: round to nearest,
// ties away from zero, saturate to [-127, 127]. Written as
// trunc(t + copysign(0.5, t)) — every operation is an exact IEEE op, so a
// vector lane computing the same expression produces the same int8.
inline int8_t QuantizeOneRef(float x, float inv_scale) {
  const float t = x * inv_scale;
  const float r = std::trunc(t + std::copysign(0.5f, t));
  if (r >= 127.0f) return 127;
  if (r <= -127.0f) return -127;
  return static_cast<int8_t>(r);
}

inline void QuantizeBufferRef(const float* x, int n, float inv_scale,
                              int8_t* out) {
  for (int i = 0; i < n; ++i) out[i] = QuantizeOneRef(x[i], inv_scale);
}

// Reference walk of the packed int8 tile layout (see simd.h). Integer
// accumulation is exact in any order, so this is the bit-exactness anchor
// for the vector micro-kernels — and, because the padding contributes
// exact zeros, equal to plain int32 dots on the unpacked operands too.
inline void Int8GemmPackedRef(const int8_t* a, const int16_t* bp, float* c,
                              int m, int k, int n, const float* a_scale,
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
      int32_t acc[kInt8TileN] = {0, 0, 0, 0};
      for (int b = 0; b < kb; ++b) {
        const int8_t* ab = arow + b * kInt8TileK;
        for (int ch = 0; ch < kInt8TileN; ++ch) {
          const int16_t* bb =
              btile + (static_cast<size_t>(b) * kInt8TileN + ch) * kInt8TileK;
          int32_t sum = acc[ch];
          for (int kk = 0; kk < kInt8TileK; ++kk) {
            sum += static_cast<int32_t>(ab[kk]) * static_cast<int32_t>(bb[kk]);
          }
          acc[ch] = sum;
        }
      }
      for (int ch = 0; ch < kInt8TileN; ++ch) {
        const int j = t * kInt8TileN + ch;
        if (j >= n) break;
        float y = static_cast<float>(acc[ch]) * as * b_scale[j];
        if (bias != nullptr) y += bias[j];
        crow[j] = y;
      }
    }
  }
}

}  // namespace qpe::nn::simd

#endif  // QPE_NN_SIMD_KERNELS_INL_H_
