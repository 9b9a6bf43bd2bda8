#include "encoder/quantized_encoder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "nn/arena.h"
#include "nn/packed_forward.h"
#include "nn/simd.h"
#include "plan/linearize.h"

namespace qpe::encoder {

namespace {

// Sites per transformer layer, in fixed order: the three input projections,
// the output projection, then the two feed-forward matrices.
constexpr int kSitesPerLayer = 6;
constexpr const char* kLayerSites[kSitesPerLayer] = {
    "attention.wq", "attention.wk", "attention.wv",
    "attention.wo", "ff1",          "ff2",
};

}  // namespace

QuantizedPlanEncoder::QuantizedPlanEncoder(
    const TransformerPlanEncoder& fp32,
    std::span<const plan::PlanNode* const> calibration)
    : config_(fp32.config()) {
  model_dim_ = config_.ModelDim();
  head_dim_ = model_dim_ / config_.num_heads;
  assert(!calibration.empty());

  // Pull the trained weights through their stable dotted names (the same
  // names the checkpoint format serializes).
  std::unordered_map<std::string, nn::Tensor> params;
  for (auto& [name, tensor] : fp32.NamedParameters()) {
    params.emplace(name, tensor);
  }
  auto get = [&](const std::string& name) -> const nn::Tensor& {
    auto it = params.find(name);
    assert(it != params.end() && "missing parameter in fp32 encoder");
    return it->second;
  };
  auto copy = [&](const std::string& name) {
    const std::vector<float>& v = get(name).value();
    return std::vector<float>(v.begin(), v.end());
  };

  embed1_ = copy("embed1.table");
  embed2_ = copy("embed2.table");
  embed3_ = copy("embed3.table");
  positional_ = copy("transformer.positional");

  struct Fp32Site {
    nn::Tensor weight;
    nn::Tensor bias;
  };
  std::vector<Fp32Site> fp32_sites;
  layers_.reserve(config_.num_layers);
  for (int i = 0; i < config_.num_layers; ++i) {
    const std::string prefix = "transformer.layer" + std::to_string(i) + ".";
    LayerParams lp;
    lp.norm1_gamma = copy(prefix + "norm1.gamma");
    lp.norm1_beta = copy(prefix + "norm1.beta");
    lp.norm2_gamma = copy(prefix + "norm2.gamma");
    lp.norm2_beta = copy(prefix + "norm2.beta");
    layers_.push_back(std::move(lp));
    for (const char* site : kLayerSites) {
      fp32_sites.push_back({get(prefix + site + ".weight"),
                            get(prefix + site + ".bias")});
    }
  }
  has_projection_ = params.count("projection.weight") > 0;
  if (has_projection_) {
    fp32_sites.push_back(
        {get("projection.weight"), get("projection.bias")});
  }

  // The owned weight vectors are final now: build the model view the
  // packed engine consumes. The pointers stay valid for the encoder's
  // lifetime.
  view_.model_dim = model_dim_;
  view_.ff_dim = config_.ff_dim;
  view_.num_heads = config_.num_heads;
  view_.num_layers = config_.num_layers;
  view_.level1_dim = config_.level1_dim;
  view_.level2_dim = config_.level2_dim;
  view_.level3_dim = config_.level3_dim;
  view_.output_dim = has_projection_ ? config_.output_dim : model_dim_;
  view_.has_projection = has_projection_;
  view_.embed1.v = embed1_.data();
  view_.embed2.v = embed2_.data();
  view_.embed3.v = embed3_.data();
  view_.positional.v = positional_.data();
  view_.layers.reserve(layers_.size());
  for (const LayerParams& lp : layers_) {
    view_.layers.push_back({{lp.norm1_gamma.data()},
                            {lp.norm1_beta.data()},
                            {lp.norm2_gamma.data()},
                            {lp.norm2_beta.data()}});
  }

  // Calibration pass: replay the packed forward with the fp32 weights,
  // recording every site's input absmax. The fp32 GEMM below goes through
  // the same simd matmul kernel the autograd path uses, so the observed
  // ranges are exactly the ranges the fp32 encoder produces.
  std::vector<nn::QuantCalibrator> calibrators(fp32_sites.size());
  nn::PackedBatch& ws = nn::PackedBatch::ThreadLocal();
  PackPlansColumns(calibration, config_.max_len, &ws);
  auto fp32_linear = [&](int site, const float* x, int m, int in, int out,
                         float* y, bool relu) {
    calibrators[site].Observe(x, static_cast<size_t>(m) * in);
    nn::simd::K().linear_bias_act(x, fp32_sites[site].weight.value().data(),
                                  fp32_sites[site].bias.value().data(), y, m,
                                  in, out, relu ? 1 : 0);
  };
  (void)nn::PackedEncodeForward(view_, ws, fp32_linear);

  sites_.reserve(fp32_sites.size());
  for (size_t s = 0; s < fp32_sites.size(); ++s) {
    sites_.push_back(nn::QuantizedLinear::FromLinear(
        fp32_sites[s].weight, fp32_sites[s].bias, calibrators[s].scale()));
  }
}

int QuantizedPlanEncoder::output_dim() const {
  return has_projection_ ? config_.output_dim : model_dim_;
}

std::vector<float> QuantizedPlanEncoder::input_scales() const {
  std::vector<float> scales;
  scales.reserve(sites_.size());
  for (const nn::QuantizedLinear& site : sites_) {
    scales.push_back(site.input_scale());
  }
  return scales;
}

std::vector<nn::Tensor> QuantizedPlanEncoder::EncodeBatch(
    std::span<const plan::PlanNode* const> plans, util::Rng* dropout_rng) const {
  (void)dropout_rng;  // inference-only engine: no dropout, ever
  if (plans.empty()) return {};
  nn::PackedBatch& ws = nn::PackedBatch::ThreadLocal();
  PackPlansColumns(plans, config_.max_len, &ws);
  // The engine calls wq, wk, wv back to back on the same normed buffer,
  // and the three sites calibrated on identical inputs, so their static
  // scales agree — wk/wv can then reuse wq's quantized activations
  // bit-identically instead of re-quantizing. The guard is conservative:
  // consecutive site ids (so an intervening call can never have rewritten
  // the buffer), same pointer/shape, and exactly equal scales.
  int last_site = -1;
  const float* last_x = nullptr;
  int last_m = 0, last_in = 0;
  auto int8_linear = [&](int site, const float* x, int m, int in, int out,
                         float* y, bool relu) {
    assert(sites_[site].in_features() == in &&
           sites_[site].out_features() == out);
    const bool reuse_qx =
        site == last_site + 1 && (site % 6 == 1 || site % 6 == 2) &&
        x == last_x && m == last_m && in == last_in &&
        sites_[site].input_scale() == sites_[last_site].input_scale();
    if (reuse_qx) {
      sites_[site].ForwardPrequantized(m, y, ws.qx, &ws.row_scale);
    } else {
      sites_[site].Forward(x, m, y, &ws.qx, &ws.row_scale);
    }
    last_site = site;
    last_x = x;
    last_m = m;
    last_in = in;
    if (relu) {
      // The engine delegates ff1's activation to the callback. bias_relu
      // with a zero bias is the op chain's exact `> 0` clamp: adding +0.0f
      // maps -0 to +0 and the clamp does the same, so every element comes
      // out bit-identical to the plain scalar sweep — vectorized.
      static thread_local std::vector<float> zeros;
      if (zeros.size() < static_cast<size_t>(out)) zeros.resize(out, 0.0f);
      nn::simd::K().bias_relu(y, zeros.data(), y, m, out);
    }
  };
  const float* cls = nn::PackedEncodeForward(view_, ws, int8_linear);
  // Result tensors escape to the caller: construct them outside any active
  // arena so steady-state serving batches create zero arena traffic.
  nn::ArenaScope noarena(nullptr);
  const int od = output_dim();
  std::vector<nn::Tensor> out;
  out.reserve(plans.size());
  for (int i = 0; i < ws.layout.size(); ++i) {
    const float* row = cls + static_cast<size_t>(i) * od;
    out.push_back(nn::Tensor::FromVector(
        1, od, std::vector<float>(row, row + od)));
  }
  return out;
}

nn::Tensor QuantizedPlanEncoder::Encode(const plan::PlanNode& root,
                                        util::Rng* dropout_rng) const {
  const plan::PlanNode* plans[] = {&root};
  return EncodeBatch(plans, dropout_rng)[0];
}

std::unique_ptr<QuantizedPlanEncoder> TransformerPlanEncoder::Quantize(
    std::span<const plan::PlanNode* const> calibration) const {
  return std::make_unique<QuantizedPlanEncoder>(*this, calibration);
}

}  // namespace qpe::encoder
