#ifndef QPE_NN_PACKED_FORWARD_H_
#define QPE_NN_PACKED_FORWARD_H_

#include <cmath>
#include <cstddef>
#include <cstring>

#include "nn/packed_batch.h"
#include "nn/simd.h"
#include "util/rng.h"

namespace qpe::nn {

// Repacks the interleaved key projection k [rows, dim] into kbt
// [head][head_dim][rows]: row (h, c) of kbt holds column h*head_dim + c of
// k, contiguous across packed rows. Plain copies.
void RepackHeadsKT(const float* k, int rows, int dim, int num_heads,
                   float* kbt);
// Repacks the interleaved value projection v [rows, dim] into vb
// [head][rows][head_dim]: each head's head_dim lanes contiguous per row.
void RepackHeadsVB(const float* v, int rows, int dim, int num_heads,
                   float* vb);

// The one batched transformer forward, for inference and training:
// embedding gather -> pre-norm attention blocks -> pre-norm feed-forward
// blocks -> CLS pooling -> optional output projection, all over raw
// contiguous buffers in `ws`. The caller packs the batch first
// (ws.ids*/ws.layout via encoder::PackPlansColumns) and supplies every GEMM
// through `linear(site, x, m, in, out, y, relu)`; sites are layer-major wq,
// wk, wv, wo, ff1, ff2, then the projection at num_layers * 6. `relu` is
// true exactly for the ff1 site — the callback owns the activation so a
// fused implementation (simd linear_bias_act) can apply it in the GEMM
// epilogue; implementations must reproduce the bias_relu kernel's `> 0`
// clamp bit for bit. Returns a pointer into ws (ws.cls or ws.proj) holding the
// [num_seqs, output_dim] result — valid until the workspace's next use.
//
// `retain` is null at inference, where one set of workspace buffers is
// overwritten layer after layer. A training forward passes a retain
// target: each layer then writes its activations there for
// PackedTrainBackward, and a non-null `dropout_rng` with mv.dropout > 0
// draws dropout masks (PackedRetain::Begin) applied to the attention and
// feed-forward branches before their residual adds.
//
// Numerics: every kernel call and elementwise loop below reproduces the
// tensor op chain's arithmetic per output element (the ReLU clamp uses
// the bias_relu kernel's `> 0` select so -0.0 maps to +0.0 exactly like the
// fused kernel), so with an exact fp32 `linear` this forward is bit-identical to
// per-plan Encode at the scalar level and epsilon-equal at vector levels
// (the one sanctioned divergence is the vector exp of the attention
// softmax). The head-blocked attention kernel used here matches the
// interleaved kernel of the per-plan op chain bit for bit at every level,
// so a training forward reproduces the per-plan activations exactly.
template <typename LinearFn>
const float* PackedEncodeForward(const PackedModelView& mv, PackedBatch& ws,
                                 LinearFn&& linear,
                                 PackedRetain* retain = nullptr,
                                 util::Rng* dropout_rng = nullptr) {
  const BatchLayout& layout = ws.layout;
  const int rows = layout.total_rows;
  const int num_seqs = layout.size();
  const int d = mv.model_dim;
  const int f = mv.ff_dim;
  const float invd = 1.0f / static_cast<float>(d);
  const int head_dim = d / mv.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const simd::Kernels& kern = simd::K();

  int max_len = 0;
  for (const int len : layout.lengths) {
    if (len > max_len) max_len = len;
  }
  const size_t rd = static_cast<size_t>(rows) * d;
  ws.EnsureF(&ws.h, rd);
  ws.EnsureF(&ws.normed, rd);
  ws.EnsureF(&ws.kbt, rd);
  ws.EnsureF(&ws.vb, rd);
  ws.EnsureF(&ws.probs, static_cast<size_t>(max_len) * max_len);
  ws.EnsureF(&ws.cls, static_cast<size_t>(num_seqs) * d);
  if (retain != nullptr) {
    retain->Begin(mv, layout, dropout_rng);
  } else {
    ws.EnsureF(&ws.q, rd);
    ws.EnsureF(&ws.k, rd);
    ws.EnsureF(&ws.v, rd);
    ws.EnsureF(&ws.ctx, rd);
    ws.EnsureF(&ws.ff, static_cast<size_t>(rows) * f);
  }
  const bool dropout = retain != nullptr && retain->used_dropout;

  float* h = retain != nullptr ? retain->layers[0].x.data() : ws.h.data();
  kern.embed_gather_add(mv.embed1.v, mv.embed2.v, mv.embed3.v,
                        mv.positional.v, ws.ids1.data(), ws.ids2.data(),
                        ws.ids3.data(), layout.positions.data(), h, rows,
                        mv.level1_dim, mv.level2_dim, mv.level3_dim);

  float* tmp = ws.normed.data();
  for (int li = 0; li < mv.num_layers; ++li) {
    const PackedLayerView& lp = mv.layers[li];
    const int base = li * 6;
    // Inference reuses the workspace buffers in place (normed doubles as
    // the norm outputs, hm and the layer output alias h); a retain target
    // gets a separate buffer per activation and layer.
    PackedLayerActs* acts = retain != nullptr ? &retain->layers[li] : nullptr;
    float* n1 = acts != nullptr ? acts->n1.data() : tmp;
    float* q = acts != nullptr ? acts->q.data() : ws.q.data();
    float* k = acts != nullptr ? acts->k.data() : ws.k.data();
    float* v = acts != nullptr ? acts->v.data() : ws.v.data();
    float* att = acts != nullptr ? acts->att.data() : ws.ctx.data();
    float* hm = acts != nullptr ? acts->hm.data() : h;
    float* n2 = acts != nullptr ? acts->n2.data() : tmp;
    float* ffa = acts != nullptr ? acts->ffa.data() : ws.ff.data();
    float* out = acts == nullptr               ? h
                 : li + 1 < mv.num_layers ? retain->layers[li + 1].x.data()
                                          : ws.h.data();

    // Pre-norm attention block with residual.
    kern.layer_norm_rows(h, lp.norm1_gamma.v, lp.norm1_beta.v, n1, rows, d,
                         invd);
    linear(base + 0, n1, rows, d, d, q, false);
    linear(base + 1, n1, rows, d, d, k, false);
    linear(base + 2, n1, rows, d, d, v, false);
    RepackHeadsKT(k, rows, d, mv.num_heads, ws.kbt.data());
    RepackHeadsVB(v, rows, d, mv.num_heads, ws.vb.data());
    kern.attention_forward_blocked(q, ws.kbt.data(), ws.vb.data(), att,
                                   layout.offsets.data(),
                                   layout.lengths.data(), num_seqs,
                                   mv.num_heads, rows, d, scale,
                                   ws.probs.data());
    linear(base + 3, att, rows, d, d, tmp, false);
    if (dropout) {
      const float* m = acts->mask_att.data();
      for (size_t i = 0; i < rd; ++i) tmp[i] *= m[i];
    }
    if (hm != h) std::memcpy(hm, h, sizeof(float) * rd);
    kern.add_rows(hm, tmp, rd);
    // Pre-norm feed-forward block (ReLU) with residual.
    kern.layer_norm_rows(hm, lp.norm2_gamma.v, lp.norm2_beta.v, n2, rows, d,
                         invd);
    linear(base + 4, n2, rows, d, f, ffa, /*relu=*/true);
    linear(base + 5, ffa, rows, f, d, tmp, false);
    if (dropout) {
      const float* m = acts->mask_ff.data();
      for (size_t i = 0; i < rd; ++i) tmp[i] *= m[i];
    }
    if (out != hm) std::memcpy(out, hm, sizeof(float) * rd);
    kern.add_rows(out, tmp, rd);
    h = out;
  }

  // CLS pooling, then the optional output projection on the [B, d] matrix.
  float* cls = ws.cls.data();
  for (int s = 0; s < num_seqs; ++s) {
    const float* src = h + static_cast<size_t>(layout.offsets[s]) * d;
    std::memcpy(cls + static_cast<size_t>(s) * d, src, sizeof(float) * d);
  }
  if (!mv.has_projection) return cls;
  ws.EnsureF(&ws.proj, static_cast<size_t>(num_seqs) * mv.output_dim);
  linear(mv.num_layers * 6, cls, num_seqs, d, mv.output_dim, ws.proj.data(),
         false);
  return ws.proj.data();
}

}  // namespace qpe::nn

#endif  // QPE_NN_PACKED_FORWARD_H_
