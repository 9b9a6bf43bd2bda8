#include "nn/packed_train.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "nn/simd.h"

namespace qpe::nn {

namespace {

void Ensure(std::vector<float>* buf, size_t n) {
  if (buf->size() < n) buf->resize(n);
}

// Gradient pointer for one parameter, resolved at backward time so a
// GradientCapture alive on this thread redirects the write into its shard
// buffer — exactly like the op-chain closures.
float* Gp(const PackedParam& p) {
  return p.impl != nullptr && p.impl->requires_grad ? GradPtr(p.impl) : nullptr;
}

}  // namespace

void PackedRetain::Begin(const PackedModelView& mv, const BatchLayout& layout,
                         util::Rng* rng) {
  const int rows = layout.total_rows;
  const int S = layout.size();
  const int d = mv.model_dim;
  const size_t rd = static_cast<size_t>(rows) * d;
  const size_t rf = static_cast<size_t>(rows) * mv.ff_dim;
  used_dropout = rng != nullptr && mv.dropout > 0.0f;
  if (static_cast<int>(layers.size()) < mv.num_layers) {
    layers.resize(mv.num_layers);
  }
  for (int li = 0; li < mv.num_layers; ++li) {
    PackedLayerActs& acts = layers[li];
    Ensure(&acts.x, rd);
    Ensure(&acts.n1, rd);
    Ensure(&acts.q, rd);
    Ensure(&acts.k, rd);
    Ensure(&acts.v, rd);
    Ensure(&acts.att, rd);
    Ensure(&acts.hm, rd);
    Ensure(&acts.n2, rd);
    Ensure(&acts.ffa, rf);
    if (used_dropout) {
      Ensure(&acts.mask_att, rd);
      Ensure(&acts.mask_ff, rd);
    }
  }
  if (!used_dropout) return;
  const float p = mv.dropout;
  const float keep = 1.0f / (1.0f - p);
  for (int ci = 0; ci < S; ++ci) {
    const int s = S - 1 - ci;
    const size_t base = static_cast<size_t>(layout.offsets[s]) * d;
    const size_t count = static_cast<size_t>(layout.lengths[s]) * d;
    for (int li = 0; li < mv.num_layers; ++li) {
      PackedLayerActs& acts = layers[li];
      float* ma = acts.mask_att.data() + base;
      for (size_t i = 0; i < count; ++i) {
        ma[i] = rng->Bernoulli(p) ? 0.0f : keep;
      }
      float* mf = acts.mask_ff.data() + base;
      for (size_t i = 0; i < count; ++i) {
        mf[i] = rng->Bernoulli(p) ? 0.0f : keep;
      }
    }
  }
}

void PackedTrainBackward(PackedBatch& ws, const float* out_grad,
                         uint64_t generation) {
  if (ws.generation != generation) {
    std::fprintf(stderr,
                 "PackedTrainBackward: the packed workspace was repacked "
                 "before Backward() ran\n");
    std::abort();
  }
  const PackedModelView& view = ws.view;
  const BatchLayout& layout = ws.layout;
  PackedRetain& rt = ws.retain;
  const simd::Kernels& kern = simd::K();
  const int rows = layout.total_rows;
  const int S = layout.size();
  const int d = view.model_dim;
  const int f = view.ff_dim;
  const int od = view.output_dim;
  const float invd = 1.0f / static_cast<float>(d);
  const int head_dim = d / view.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const size_t rd = static_cast<size_t>(rows) * d;
  const size_t rf = static_cast<size_t>(rows) * f;

  Ensure(&rt.d_h, rd);
  Ensure(&rt.d_tmp, rd);
  Ensure(&rt.d_att, rd);
  Ensure(&rt.d_q, rd);
  Ensure(&rt.d_k, rd);
  Ensure(&rt.d_v, rd);
  Ensure(&rt.d_n1, rd);
  Ensure(&rt.d_n2, rd);
  Ensure(&rt.d_act, rf);
  Ensure(&rt.d_pre, rf);
  float* d_h = rt.d_h.data();
  float* d_tmp = rt.d_tmp.data();
  float* d_att = rt.d_att.data();
  float* d_q = rt.d_q.data();
  float* d_k = rt.d_k.data();
  float* d_v = rt.d_v.data();
  float* d_n1 = rt.d_n1.data();
  float* d_n2 = rt.d_n2.data();
  float* d_act = rt.d_act.data();
  float* d_pre = rt.d_pre.data();

  // Projection backward (when present), then scatter each sequence's
  // pooled-CLS gradient back onto its first packed row.
  const float* d_cls_rows = out_grad;
  if (view.has_projection) {
    const PackedSiteView& ps = view.sites[view.num_layers * 6];
    Ensure(&rt.d_cls, static_cast<size_t>(S) * d);
    float* d_cls = rt.d_cls.data();
    std::fill_n(d_cls, static_cast<size_t>(S) * d, 0.0f);
    kern.matmul_backward_a(out_grad, ps.weight.v, d_cls, 0, S, d, od);
    if (float* wg = Gp(ps.weight)) {
      kern.matmul_backward_b(ws.cls.data(), out_grad, wg, 0, d, S, d, od);
    }
    if (float* bg = Gp(ps.bias)) {
      for (int s = 0; s < S; ++s) {
        kern.add_rows(bg, out_grad + static_cast<size_t>(s) * od, od);
      }
    }
    d_cls_rows = d_cls;
  }
  std::fill_n(d_h, rd, 0.0f);
  for (int s = 0; s < S; ++s) {
    kern.add_rows(d_h + static_cast<size_t>(layout.offsets[s]) * d,
                  d_cls_rows + static_cast<size_t>(s) * d, d);
  }

  // Layer backward, top down. d_h carries the gradient of the block the
  // current step consumes: the layer output on entry, the post-attention
  // residual after the norm2 step, the layer input after the norm1 step.
  for (int li = view.num_layers - 1; li >= 0; --li) {
    const PackedLayerActs& acts = rt.layers[li];
    const PackedLayerView& lp = view.layers[li];
    const int base = li * 6;

    // Feed-forward branch of the output residual (through the ff dropout
    // mask when one was drawn).
    if (rt.used_dropout) {
      std::fill_n(d_tmp, rd, 0.0f);
      const float* m = acts.mask_ff.data();
      for (size_t i = 0; i < rd; ++i) d_tmp[i] += d_h[i] * m[i];
    } else {
      std::memcpy(d_tmp, d_h, sizeof(float) * rd);
    }
    const PackedSiteView& ff2 = view.sites[base + 5];
    std::fill_n(d_act, rf, 0.0f);
    kern.matmul_backward_a(d_tmp, ff2.weight.v, d_act, 0, rows, f, d);
    if (float* wg = Gp(ff2.weight)) {
      kern.matmul_backward_b(acts.ffa.data(), d_tmp, wg, 0, f, rows, f, d);
    }
    if (float* bg = Gp(ff2.bias)) {
      for (int i = 0; i < rows; ++i) {
        kern.add_rows(bg, d_tmp + static_cast<size_t>(i) * d, d);
      }
    }
    const PackedSiteView& ff1 = view.sites[base + 4];
    std::fill_n(d_pre, rf, 0.0f);
    kern.bias_act_backward(acts.ffa.data(), d_act, d_pre, Gp(ff1.bias), rows,
                           f);
    std::fill_n(d_n2, rd, 0.0f);
    kern.matmul_backward_a(d_pre, ff1.weight.v, d_n2, 0, rows, d, f);
    if (float* wg = Gp(ff1.weight)) {
      kern.matmul_backward_b(acts.n2.data(), d_pre, wg, 0, d, rows, d, f);
    }
    kern.layer_norm_rows_backward(acts.hm.data(), lp.norm2_gamma.v, d_n2, d_h,
                                  Gp(lp.norm2_gamma), Gp(lp.norm2_beta), rows,
                                  d, invd);

    // Attention branch of the post-attention residual.
    if (rt.used_dropout) {
      std::fill_n(d_tmp, rd, 0.0f);
      const float* m = acts.mask_att.data();
      for (size_t i = 0; i < rd; ++i) d_tmp[i] += d_h[i] * m[i];
    } else {
      std::memcpy(d_tmp, d_h, sizeof(float) * rd);
    }
    const PackedSiteView& wo = view.sites[base + 3];
    std::fill_n(d_att, rd, 0.0f);
    kern.matmul_backward_a(d_tmp, wo.weight.v, d_att, 0, rows, d, d);
    if (float* wg = Gp(wo.weight)) {
      kern.matmul_backward_b(acts.att.data(), d_tmp, wg, 0, d, rows, d, d);
    }
    if (float* bg = Gp(wo.bias)) {
      for (int i = 0; i < rows; ++i) {
        kern.add_rows(bg, d_tmp + static_cast<size_t>(i) * d, d);
      }
    }
    std::fill_n(d_q, rd, 0.0f);
    std::fill_n(d_k, rd, 0.0f);
    std::fill_n(d_v, rd, 0.0f);
    kern.attention_backward_packed(acts.q.data(), acts.k.data(), acts.v.data(),
                                   d_att, d_q, d_k, d_v, layout.offsets.data(),
                                   layout.lengths.data(), S, view.num_heads, d,
                                   scale);
    std::fill_n(d_n1, rd, 0.0f);
    // The op chain backpropagates the projections in reverse build order:
    // values, keys, queries.
    const float* d_proj[3] = {d_v, d_k, d_q};
    const int proj_site[3] = {base + 2, base + 1, base + 0};
    for (int p = 0; p < 3; ++p) {
      const PackedSiteView& site = view.sites[proj_site[p]];
      kern.matmul_backward_a(d_proj[p], site.weight.v, d_n1, 0, rows, d, d);
      if (float* wg = Gp(site.weight)) {
        kern.matmul_backward_b(acts.n1.data(), d_proj[p], wg, 0, d, rows, d,
                               d);
      }
      if (float* bg = Gp(site.bias)) {
        for (int i = 0; i < rows; ++i) {
          kern.add_rows(bg, d_proj[p] + static_cast<size_t>(i) * d, d);
        }
      }
    }
    kern.layer_norm_rows_backward(acts.x.data(), lp.norm1_gamma.v, d_n1, d_h,
                                  Gp(lp.norm1_gamma), Gp(lp.norm1_beta), rows,
                                  d, invd);
  }

  // Embedding + positional scatter of the bottom gradient.
  float* pg = Gp(view.positional);
  float* e1g = Gp(view.embed1);
  float* e2g = Gp(view.embed2);
  float* e3g = Gp(view.embed3);
  const int d1 = view.level1_dim;
  const int d2 = view.level2_dim;
  const int d3 = view.level3_dim;
  for (int r = 0; r < rows; ++r) {
    const float* g = d_h + static_cast<size_t>(r) * d;
    if (pg != nullptr) {
      kern.add_rows(pg + static_cast<size_t>(layout.positions[r]) * d, g, d);
    }
    if (e1g != nullptr) {
      kern.add_rows(e1g + static_cast<size_t>(ws.ids1[r]) * d1, g, d1);
    }
    if (e2g != nullptr) {
      kern.add_rows(e2g + static_cast<size_t>(ws.ids2[r]) * d2, g + d1, d2);
    }
    if (e3g != nullptr) {
      kern.add_rows(e3g + static_cast<size_t>(ws.ids3[r]) * d3, g + d1 + d2,
                    d3);
    }
  }
}

}  // namespace qpe::nn
