// Verbatim copies of MatMulBackwardAT, MatMulBackwardBT and
// AttentionBackwardPackedT as they were before the backward kernels were
// rewritten (only the names gained a Legacy prefix), plus the attention
// backward's recompute phase on its own, which yields the probabilities
// the current kernel takes as input. Compiled with the same per-ISA flags
// as the library's vector table so the legacy vector bodies produce the
// bits the old table did.

#include "legacy_backward_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "nn/simd_ops.h"

namespace qpe::nn::simd::legacy {

namespace {

// dA[i0:i1, :] += dOut[i0:i1, :] * B^T. The seed closure computes each
// dA element as one complete ascending-j dot in a register, added to dA
// once — note this is *not* the forward's accumulate-into-out shape, so
// the vector path cannot reuse MatMulForwardRangeT. Instead it runs
// register-tiled lanes across the p (dA column) dimension over a
// transposed copy of B: each lane's dot still starts at zero and
// accumulates ascending j, followed by the one final add, so every level
// produces the seed's bits. The transpose is pure data movement (never
// rounds) into a thread-local scratch, rebuilt per ParallelFor range —
// ranges are capped at 4x the thread count, and the training matrices
// are small enough (k, n <= a few hundred) that the repack is noise next
// to the O(m*k*n) dots it unlocks.
template <typename V>
void LegacyMatMulBackwardAT(const float* __restrict og, const float* __restrict bv,
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
    for (int p = 0; p < k; ++p) {
      const float* __restrict brow = bv + static_cast<size_t>(p) * n;
      for (int j = 0; j < n; ++j) btv[static_cast<size_t>(j) * k + p] = brow[j];
    }
    const auto zero = V::Broadcast(0.0f);
    for (int i = i0; i < i1; ++i) {
      const float* __restrict orow = og + static_cast<size_t>(i) * n;
      float* __restrict arow = ag + static_cast<size_t>(i) * k;
      int p = 0;
      for (; p + 4 * L <= k; p += 4 * L) {
        auto a0 = zero;
        auto a1 = zero;
        auto a2 = zero;
        auto a3 = zero;
        for (int j = 0; j < n; ++j) {
          const float* __restrict btrow = btv + static_cast<size_t>(j) * k + p;
          const auto vo = V::Broadcast(orow[j]);
          a0 = V::Add(a0, V::Mul(vo, V::Load(btrow)));
          a1 = V::Add(a1, V::Mul(vo, V::Load(btrow + L)));
          a2 = V::Add(a2, V::Mul(vo, V::Load(btrow + 2 * L)));
          a3 = V::Add(a3, V::Mul(vo, V::Load(btrow + 3 * L)));
        }
        V::Store(arow + p, V::Add(V::Load(arow + p), a0));
        V::Store(arow + p + L, V::Add(V::Load(arow + p + L), a1));
        V::Store(arow + p + 2 * L, V::Add(V::Load(arow + p + 2 * L), a2));
        V::Store(arow + p + 3 * L, V::Add(V::Load(arow + p + 3 * L), a3));
      }
      for (; p + L <= k; p += L) {
        auto a0 = zero;
        for (int j = 0; j < n; ++j) {
          a0 = V::Add(a0, V::Mul(V::Broadcast(orow[j]),
                                 V::Load(btv + static_cast<size_t>(j) * k + p)));
        }
        V::Store(arow + p, V::Add(V::Load(arow + p), a0));
      }
      for (; p < k; ++p) {
        float dot = 0.0f;
        for (int j = 0; j < n; ++j) {
          dot += orow[j] * btv[static_cast<size_t>(j) * k + p];
        }
        arow[p] += dot;
      }
    }
  }
}

// dB[p0:p1, :] += (A^T * dOut)[p0:p1, :] as rank-1 row updates: for each
// i ascending, axpy dOut row i into the dB rows selected by A row i. Per
// output element the i dimension accumulates in ascending order
// regardless of the p partition, and the seed's aval == 0 skip (ReLU
// inputs are often sparse) is kept at every level — the surviving value
// subsequence is identical, so so are the bits. The vector path runs
// lanes across the contiguous j dimension of the axpy.
template <typename V>
void LegacyMatMulBackwardBT(const float* __restrict av, const float* __restrict og,
                      float* __restrict bg, int p0, int p1, int m, int k,
                      int n) {
  constexpr int L = V::kLanes;
  for (int i = 0; i < m; ++i) {
    const float* __restrict arow = av + static_cast<size_t>(i) * k;
    const float* __restrict orow = og + static_cast<size_t>(i) * n;
    for (int p = p0; p < p1; ++p) {
      const float aval = arow[p];
      if (aval == 0.0f) continue;
      float* __restrict brow = bg + static_cast<size_t>(p) * n;
      if constexpr (L == 1) {
        for (int j = 0; j < n; ++j) brow[j] += aval * orow[j];
      } else {
        const auto va = V::Broadcast(aval);
        int j = 0;
        for (; j + 2 * L <= n; j += 2 * L) {
          V::Store(brow + j,
                   V::Add(V::Load(brow + j), V::Mul(va, V::Load(orow + j))));
          V::Store(brow + j + L, V::Add(V::Load(brow + j + L),
                                        V::Mul(va, V::Load(orow + j + L))));
        }
        for (; j + L <= n; j += L) {
          V::Store(brow + j,
                   V::Add(V::Load(brow + j), V::Mul(va, V::Load(orow + j))));
        }
        for (; j < n; ++j) brow[j] += aval * orow[j];
      }
    }
  }
}

// Backward of attention_forward_packed. The probabilities are recomputed
// rather than cached across the graph's lifetime (the seed closure's
// trade-off, kept here): per element the score dot accumulates ascending
// c from zero and is scaled once, the max reduction is exact, exp goes
// through V::Exp — so at any level the recomputed probs match that
// level's *forward* bits exactly, and only cross-level equality is
// epsilon-gated — and the normalizing sum stays scalar ascending. The
// gradient phases keep the seed's accumulation orders: d_probs lanes run
// across key positions j over a transposed value pack (each lane's dot
// ascending c from zero), and the v/q/k gradient axpys run lanes across
// the head columns with their per-j memory accumulation order untouched.
template <typename V>
void LegacyAttentionBackwardPackedT(const float* __restrict qv,
                              const float* __restrict kv,
                              const float* __restrict vv,
                              const float* __restrict og, float* __restrict qg,
                              float* __restrict kg, float* __restrict vg,
                              const int* __restrict offsets,
                              const int* __restrict lengths, int num_seqs,
                              int num_heads, int dim, float scale) {
  constexpr int L = V::kLanes;
  const int dh = dim / num_heads;
  const int dhv = (dh / L) * L;
  std::vector<float> probs, dprobs;
  std::vector<float> kt, vt;  // vector levels: k^T / v^T head packs [dh, len]
  for (int s = 0; s < num_seqs; ++s) {
    const int off = offsets[s];
    const int len = lengths[s];
    probs.resize(static_cast<size_t>(len) * len);
    dprobs.resize(static_cast<size_t>(len) * len);
    if constexpr (L != 1) {
      kt.resize(static_cast<size_t>(dh) * len);
      vt.resize(static_cast<size_t>(dh) * len);
    }
    for (int h = 0; h < num_heads; ++h) {
      const int col0 = h * dh;
      if constexpr (L != 1) {
        for (int j = 0; j < len; ++j) {
          const float* __restrict krow =
              kv + static_cast<size_t>(off + j) * dim + col0;
          const float* __restrict vrow =
              vv + static_cast<size_t>(off + j) * dim + col0;
          for (int c = 0; c < dh; ++c) {
            kt[static_cast<size_t>(c) * len + j] = krow[c];
            vt[static_cast<size_t>(c) * len + j] = vrow[c];
          }
        }
      }
      // --- Recompute this head's attention probabilities ---------------
      for (int i = 0; i < len; ++i) {
        const float* __restrict qrow =
            qv + static_cast<size_t>(off + i) * dim + col0;
        float* __restrict prow = probs.data() + static_cast<size_t>(i) * len;
        if constexpr (L == 1) {
          for (int j = 0; j < len; ++j) {
            const float* __restrict krow =
                kv + static_cast<size_t>(off + j) * dim + col0;
            float dot = 0;
            for (int c = 0; c < dh; ++c) dot += qrow[c] * krow[c];
            prow[j] = dot * scale;
          }
          float max_v = prow[0];
          for (int j = 1; j < len; ++j) max_v = std::max(max_v, prow[j]);
          float sum = 0;
          for (int j = 0; j < len; ++j) {
            prow[j] = std::exp(prow[j] - max_v);
            sum += prow[j];
          }
          for (int j = 0; j < len; ++j) prow[j] /= sum;
        } else {
          const int lenv = (len / L) * L;
          const float* __restrict ktv = kt.data();
          const auto zero = V::Broadcast(0.0f);
          const auto vs = V::Broadcast(scale);
          int j = 0;
          for (; j + L <= len; j += L) {
            auto a0 = zero;
            for (int c = 0; c < dh; ++c) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(qrow[c]),
                                     V::Load(ktv + static_cast<size_t>(c) * len +
                                             j)));
            }
            V::Store(prow + j, V::Mul(a0, vs));
          }
          for (; j < len; ++j) {
            float dot = 0;
            for (int c = 0; c < dh; ++c) {
              dot += qrow[c] * ktv[static_cast<size_t>(c) * len + j];
            }
            prow[j] = dot * scale;
          }
          float max_v = prow[0];
          {
            int jj = 1;
            if (len >= L) {
              auto vmax = V::Load(prow);
              for (jj = L; jj + L <= len; jj += L) {
                vmax = V::Max(vmax, V::Load(prow + jj));
              }
              max_v = V::HMax(vmax);
            }
            for (; jj < len; ++jj) max_v = std::max(max_v, prow[jj]);
          }
          {
            const auto vm = V::Broadcast(max_v);
            int jj = 0;
            for (; jj < lenv; jj += L) {
              V::Store(prow + jj, V::Exp(V::Sub(V::Load(prow + jj), vm)));
            }
            for (; jj < len; ++jj) prow[jj] = std::exp(prow[jj] - max_v);
          }
          float sum = 0;
          for (int jj = 0; jj < len; ++jj) sum += prow[jj];
          {
            const auto vsum = V::Broadcast(sum);
            int jj = 0;
            for (; jj < lenv; jj += L) {
              V::Store(prow + jj, V::Div(V::Load(prow + jj), vsum));
            }
            for (; jj < len; ++jj) prow[jj] /= sum;
          }
        }
      }
      // --- Gradient phases, same accumulation orders as the seed -------
      for (int i = 0; i < len; ++i) {
        const float* __restrict prow =
            probs.data() + static_cast<size_t>(i) * len;
        float* __restrict dprow =
            dprobs.data() + static_cast<size_t>(i) * len;
        const float* __restrict grow =
            og + static_cast<size_t>(off + i) * dim + col0;
        // d_probs = d_ctx * vh^T; d_vh += probs^T * d_ctx.
        if constexpr (L == 1) {
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
        } else {
          const float* __restrict vtv = vt.data();
          const auto zero = V::Broadcast(0.0f);
          int j = 0;
          for (; j + L <= len; j += L) {
            auto a0 = zero;
            for (int c = 0; c < dh; ++c) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(grow[c]),
                                     V::Load(vtv + static_cast<size_t>(c) * len +
                                             j)));
            }
            V::Store(dprow + j, a0);
          }
          for (; j < len; ++j) {
            float dp = 0;
            for (int c = 0; c < dh; ++c) {
              dp += grow[c] * vtv[static_cast<size_t>(c) * len + j];
            }
            dprow[j] = dp;
          }
          if (vg) {
            for (j = 0; j < len; ++j) {
              float* __restrict vgrow =
                  vg + static_cast<size_t>(off + j) * dim + col0;
              const auto vp = V::Broadcast(prow[j]);
              int c = 0;
              for (; c < dhv; c += L) {
                V::Store(vgrow + c, V::Add(V::Load(vgrow + c),
                                           V::Mul(vp, V::Load(grow + c))));
              }
              for (; c < dh; ++c) vgrow[c] += prow[j] * grow[c];
            }
          }
        }
        // Softmax backward, then the post-softmax Scale folds into the
        // score gradient: d_scores = scale * p * (dp - sum(p * dp)).
        float dot = 0;
        for (int j = 0; j < len; ++j) dot += prow[j] * dprow[j];
        if constexpr (L == 1) {
          for (int j = 0; j < len; ++j) {
            dprow[j] = scale * prow[j] * (dprow[j] - dot);
          }
        } else {
          const auto vscale = V::Broadcast(scale);
          const auto vdot = V::Broadcast(dot);
          int j = 0;
          for (; j + L <= len; j += L) {
            V::Store(dprow + j,
                     V::Mul(V::Mul(vscale, V::Load(prow + j)),
                            V::Sub(V::Load(dprow + j), vdot)));
          }
          for (; j < len; ++j) {
            dprow[j] = scale * prow[j] * (dprow[j] - dot);
          }
        }
        // d_qh += d_scores * kh; d_kh += d_scores^T * qh.
        const float* __restrict qrow =
            qv + static_cast<size_t>(off + i) * dim + col0;
        float* __restrict qgrow =
            qg ? qg + static_cast<size_t>(off + i) * dim + col0 : nullptr;
        for (int j = 0; j < len; ++j) {
          const float ds = dprow[j];
          const float* __restrict krow =
              kv + static_cast<size_t>(off + j) * dim + col0;
          if constexpr (L == 1) {
            if (qgrow) {
              for (int c = 0; c < dh; ++c) qgrow[c] += ds * krow[c];
            }
            if (kg) {
              float* __restrict kgrow =
                  kg + static_cast<size_t>(off + j) * dim + col0;
              for (int c = 0; c < dh; ++c) kgrow[c] += ds * qrow[c];
            }
          } else {
            const auto vds = V::Broadcast(ds);
            if (qgrow) {
              int c = 0;
              for (; c < dhv; c += L) {
                V::Store(qgrow + c, V::Add(V::Load(qgrow + c),
                                           V::Mul(vds, V::Load(krow + c))));
              }
              for (; c < dh; ++c) qgrow[c] += ds * krow[c];
            }
            if (kg) {
              float* __restrict kgrow =
                  kg + static_cast<size_t>(off + j) * dim + col0;
              int c = 0;
              for (; c < dhv; c += L) {
                V::Store(kgrow + c, V::Add(V::Load(kgrow + c),
                                           V::Mul(vds, V::Load(qrow + c))));
              }
              for (; c < dh; ++c) kgrow[c] += ds * qrow[c];
            }
          }
        }
      }
    }
  }
}

// The recompute phase of LegacyAttentionBackwardPackedT above, statement
// for statement, writing each (sequence, head) block to its own slot.
template <typename V>
void LegacyAttentionProbsT(const float* __restrict qv,
                           const float* __restrict kv, float* __restrict out,
                           const int* __restrict offsets,
                           const int* __restrict lengths, int num_seqs,
                           int num_heads, int dim, float scale) {
  constexpr int L = V::kLanes;
  const int dh = dim / num_heads;
  std::vector<float> probs;
  std::vector<float> kt;
  for (int s = 0; s < num_seqs; ++s) {
    const int off = offsets[s];
    const int len = lengths[s];
    probs.resize(static_cast<size_t>(len) * len);
    if constexpr (L != 1) kt.resize(static_cast<size_t>(dh) * len);
    for (int h = 0; h < num_heads; ++h) {
      const int col0 = h * dh;
      if constexpr (L != 1) {
        for (int j = 0; j < len; ++j) {
          const float* __restrict krow =
              kv + static_cast<size_t>(off + j) * dim + col0;
          for (int c = 0; c < dh; ++c) {
            kt[static_cast<size_t>(c) * len + j] = krow[c];
          }
        }
      }
      // --- Recompute this head's attention probabilities ---------------
      for (int i = 0; i < len; ++i) {
        const float* __restrict qrow =
            qv + static_cast<size_t>(off + i) * dim + col0;
        float* __restrict prow = probs.data() + static_cast<size_t>(i) * len;
        if constexpr (L == 1) {
          for (int j = 0; j < len; ++j) {
            const float* __restrict krow =
                kv + static_cast<size_t>(off + j) * dim + col0;
            float dot = 0;
            for (int c = 0; c < dh; ++c) dot += qrow[c] * krow[c];
            prow[j] = dot * scale;
          }
          float max_v = prow[0];
          for (int j = 1; j < len; ++j) max_v = std::max(max_v, prow[j]);
          float sum = 0;
          for (int j = 0; j < len; ++j) {
            prow[j] = std::exp(prow[j] - max_v);
            sum += prow[j];
          }
          for (int j = 0; j < len; ++j) prow[j] /= sum;
        } else {
          const int lenv = (len / L) * L;
          const float* __restrict ktv = kt.data();
          const auto zero = V::Broadcast(0.0f);
          const auto vs = V::Broadcast(scale);
          int j = 0;
          for (; j + L <= len; j += L) {
            auto a0 = zero;
            for (int c = 0; c < dh; ++c) {
              a0 = V::Add(a0, V::Mul(V::Broadcast(qrow[c]),
                                     V::Load(ktv + static_cast<size_t>(c) * len +
                                             j)));
            }
            V::Store(prow + j, V::Mul(a0, vs));
          }
          for (; j < len; ++j) {
            float dot = 0;
            for (int c = 0; c < dh; ++c) {
              dot += qrow[c] * ktv[static_cast<size_t>(c) * len + j];
            }
            prow[j] = dot * scale;
          }
          float max_v = prow[0];
          {
            int jj = 1;
            if (len >= L) {
              auto vmax = V::Load(prow);
              for (jj = L; jj + L <= len; jj += L) {
                vmax = V::Max(vmax, V::Load(prow + jj));
              }
              max_v = V::HMax(vmax);
            }
            for (; jj < len; ++jj) max_v = std::max(max_v, prow[jj]);
          }
          {
            const auto vm = V::Broadcast(max_v);
            int jj = 0;
            for (; jj < lenv; jj += L) {
              V::Store(prow + jj, V::Exp(V::Sub(V::Load(prow + jj), vm)));
            }
            for (; jj < len; ++jj) prow[jj] = std::exp(prow[jj] - max_v);
          }
          float sum = 0;
          for (int jj = 0; jj < len; ++jj) sum += prow[jj];
          {
            const auto vsum = V::Broadcast(sum);
            int jj = 0;
            for (; jj < lenv; jj += L) {
              V::Store(prow + jj, V::Div(V::Load(prow + jj), vsum));
            }
            for (; jj < len; ++jj) prow[jj] /= sum;
          }
        }
      }
      std::copy(probs.begin(), probs.end(), out);
      out += probs.size();
    }
  }
}

template <typename V>
void MatMulBackwardA(const float* og, const float* bv, float* ag, int i0,
                     int i1, int k, int n) {
  LegacyMatMulBackwardAT<V>(og, bv, ag, i0, i1, k, n);
}

template <typename V>
void MatMulBackwardB(const float* av, const float* og, float* bg, int p0,
                     int p1, int m, int k, int n) {
  LegacyMatMulBackwardBT<V>(av, og, bg, p0, p1, m, k, n);
}

template <typename V>
void AttentionBackwardPacked(const float* qv, const float* kv,
                             const float* vv, const float* og, float* qg,
                             float* kg, float* vg, const int* offsets,
                             const int* lengths, int num_seqs, int num_heads,
                             int dim, float scale) {
  LegacyAttentionBackwardPackedT<V>(qv, kv, vv, og, qg, kg, vg, offsets,
                                    lengths, num_seqs, num_heads, dim, scale);
}

template <typename V>
void AttentionProbs(const float* qv, const float* kv, float* probs,
                    const int* offsets, const int* lengths, int num_seqs,
                    int num_heads, int dim, float scale) {
  LegacyAttentionProbsT<V>(qv, kv, probs, offsets, lengths, num_seqs,
                           num_heads, dim, scale);
}

template <typename V>
constexpr BackwardKernels kTable = {
    &MatMulBackwardA<V>,
    &MatMulBackwardB<V>,
    &AttentionBackwardPacked<V>,
    &AttentionProbs<V>,
};

}  // namespace

const BackwardKernels* LegacyFor(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kTable<ScalarOps>;
    case Level::kAvx2:
#if defined(__AVX2__)
      return &kTable<Avx2Ops>;
#else
      return nullptr;
#endif
    case Level::kNeon:
#if defined(__aarch64__) && defined(__ARM_NEON)
      return &kTable<NeonOps>;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

}  // namespace qpe::nn::simd::legacy
