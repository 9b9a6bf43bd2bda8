// Packed-batch pipeline tests: FromLengthsChecked validation, the fused
// embedding-gather kernel, the head-blocked attention kernel, the packed
// int8 GEMM, the quantize_buffer contract (ties away from zero,
// saturation), packed-vs-per-plan encoder parity at adversarial batch
// shapes x SIMD levels x thread counts, packed training against the
// per-plan op chain, and the arena-steady-state contract (zero heap
// acquisitions per micro-batch after warmup).

#include <climits>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "data/plan_corpus.h"
#include "encoder/ppsr.h"
#include "encoder/quantized_encoder.h"
#include "encoder/structure_encoder.h"
#include "gtest/gtest.h"
#include "nn/arena.h"
#include "nn/packed_batch.h"
#include "nn/packed_forward.h"
#include "nn/quant.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "nn/transformer.h"
#include "plan/plan_node.h"
#include "serve/embedding_service.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qpe {
namespace {

using nn::BatchLayout;
using nn::simd::Kernels;
using nn::simd::Level;

// Restores the dispatched kernel table on scope exit so a forced level
// never leaks into other tests.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(nn::simd::ActiveLevel()) {}
  ~SimdLevelGuard() { nn::simd::ForceLevel(saved_); }

 private:
  Level saved_;
};

// Restores the global thread count on scope exit.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(util::MaxThreads()) {}
  ~ThreadCountGuard() { util::SetMaxThreads(saved_); }

 private:
  int saved_;
};

std::vector<float> RandomVec(size_t n, util::Rng* rng, float scale = 1.0f) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = scale * static_cast<float>(rng->Uniform() * 2.0 - 1.0);
  }
  return v;
}

std::vector<int8_t> RandomInt8(size_t n, util::Rng* rng) {
  std::vector<int8_t> v(n);
  for (int8_t& x : v) {
    x = static_cast<int8_t>(
        static_cast<int>(rng->Uniform() * 255.0) - 127);
  }
  return v;
}

// The vector table compiled into this binary (if the hardware supports
// it); on scalar-only hardware the parity tests run scalar-vs-scalar and
// trivially pass.
const Kernels* VectorTable() {
  return nn::simd::TableFor(nn::simd::HardwareLevel());
}

encoder::StructureEncoderConfig SmallConfig() {
  encoder::StructureEncoderConfig config;
  config.level1_dim = 12;
  config.level2_dim = 6;
  config.level3_dim = 6;
  config.num_heads = 2;
  config.ff_dim = 32;
  config.num_layers = 2;
  config.max_len = 128;
  config.dropout = 0.0f;
  return config;
}

std::vector<std::unique_ptr<plan::PlanNode>> SamplePlans(int count,
                                                         uint64_t seed,
                                                         int min_nodes = 4,
                                                         int max_nodes = 24) {
  data::CorpusOptions options;
  options.min_nodes = min_nodes;
  options.max_nodes = max_nodes;
  data::RandomPlanGenerator generator(util::Rng(seed), options);
  std::vector<std::unique_ptr<plan::PlanNode>> plans;
  plans.reserve(count);
  for (int i = 0; i < count; ++i) plans.push_back(generator.Generate());
  return plans;
}

std::vector<const plan::PlanNode*> Pointers(
    const std::vector<std::unique_ptr<plan::PlanNode>>& plans) {
  std::vector<const plan::PlanNode*> ptrs;
  ptrs.reserve(plans.size());
  for (const auto& p : plans) ptrs.push_back(p.get());
  return ptrs;
}

// --- BatchLayout::FromLengthsChecked hardening ------------------------------

TEST(FromLengthsCheckedTest, AcceptsValidLengths) {
  const auto layout = BatchLayout::FromLengthsChecked({1, 5, 3});
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout.value().total_rows, 9);
  EXPECT_EQ(layout.value().offsets, (std::vector<int>{0, 1, 6}));
  EXPECT_EQ(layout.value().positions,
            (std::vector<int>{0, 0, 1, 2, 3, 4, 0, 1, 2}));
}

TEST(FromLengthsCheckedTest, RejectsZeroAndNegativeLengths) {
  const auto zero = BatchLayout::FromLengthsChecked({3, 0, 2});
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("sequence 1"), std::string::npos)
      << zero.status().message();
  EXPECT_NE(zero.status().message().find("non-positive"), std::string::npos);

  const auto negative = BatchLayout::FromLengthsChecked({-5});
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("sequence 0"),
            std::string::npos);
  EXPECT_NE(negative.status().message().find("-5"), std::string::npos);
}

TEST(FromLengthsCheckedTest, RejectsTotalRowsOverflow) {
  // Each length is individually valid; the running total overflows int.
  // Validation must reject this before allocating anything proportional to
  // the bogus total (the test would OOM otherwise).
  const auto overflow = BatchLayout::FromLengthsChecked({INT_MAX, INT_MAX});
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find("overflow"), std::string::npos)
      << overflow.status().message();
  EXPECT_NE(overflow.status().message().find("sequence 1"),
            std::string::npos);
}

TEST(FromLengthsCheckedTest, EmptyBatchIsValid) {
  const auto layout = BatchLayout::FromLengthsChecked({});
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout.value().total_rows, 0);
  EXPECT_EQ(layout.value().size(), 0);
}

// --- Fused embedding gather + positional add --------------------------------

TEST(PackedKernelTest, EmbedGatherAddMatchesScalarBitwise) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  util::Rng rng(91);
  // Odd per-level dims so every segment exercises its tail lanes.
  const int d1 = 13, d2 = 5, d3 = 7;
  const int d = d1 + d2 + d3;
  const int vocab1 = 19, vocab2 = 11, vocab3 = 9, max_len = 17;
  const std::vector<float> e1 = RandomVec(static_cast<size_t>(vocab1) * d1,
                                          &rng);
  const std::vector<float> e2 = RandomVec(static_cast<size_t>(vocab2) * d2,
                                          &rng);
  const std::vector<float> e3 = RandomVec(static_cast<size_t>(vocab3) * d3,
                                          &rng);
  const std::vector<float> pos = RandomVec(static_cast<size_t>(max_len) * d,
                                           &rng);
  for (const int rows : {1, 3, 17}) {
    std::vector<int> ids1(rows), ids2(rows), ids3(rows), positions(rows);
    for (int r = 0; r < rows; ++r) {
      ids1[r] = static_cast<int>(rng.Uniform() * vocab1);
      ids2[r] = static_cast<int>(rng.Uniform() * vocab2);
      ids3[r] = static_cast<int>(rng.Uniform() * vocab3);
      positions[r] = static_cast<int>(rng.Uniform() * max_len);
    }
    std::vector<float> out_s(static_cast<size_t>(rows) * d, -1.0f);
    std::vector<float> out_v(static_cast<size_t>(rows) * d, -2.0f);
    scalar->embed_gather_add(e1.data(), e2.data(), e3.data(), pos.data(),
                             ids1.data(), ids2.data(), ids3.data(),
                             positions.data(), out_s.data(), rows, d1, d2,
                             d3);
    vec->embed_gather_add(e1.data(), e2.data(), e3.data(), pos.data(),
                          ids1.data(), ids2.data(), ids3.data(),
                          positions.data(), out_v.data(), rows, d1, d2, d3);
    // Reference: explicit gather + add. Pure copies and adds, so every
    // level must match it bit for bit.
    for (int r = 0; r < rows; ++r) {
      const float* prow = pos.data() + static_cast<size_t>(positions[r]) * d;
      for (int c = 0; c < d; ++c) {
        const float* table =
            c < d1 ? e1.data() + static_cast<size_t>(ids1[r]) * d1 + c
            : c < d1 + d2
                ? e2.data() + static_cast<size_t>(ids2[r]) * d2 + (c - d1)
                : e3.data() + static_cast<size_t>(ids3[r]) * d3 +
                      (c - d1 - d2);
        const float expect = *table + prow[c];
        const size_t idx = static_cast<size_t>(r) * d + c;
        ASSERT_EQ(out_s[idx], expect) << "row " << r << " col " << c;
        ASSERT_EQ(out_v[idx], expect) << "row " << r << " col " << c;
      }
    }
  }
}

// --- Head-blocked attention -------------------------------------------------

TEST(PackedKernelTest, AttentionBlockedMatchesInterleavedPerLevel) {
  // The blocked kernel reproduces the interleaved kernel's arithmetic per
  // output element, so within one level the two must agree bit for bit —
  // including at vector levels, where both use the same polynomial exp.
  util::Rng rng(92);
  const int num_heads = 3, head_dim = 5;
  const int d = num_heads * head_dim;
  const std::vector<int> lengths = {1, 7, 3, 1, 12};
  const BatchLayout layout = BatchLayout::FromLengthsChecked(lengths).value();
  const int rows = layout.total_rows;
  int max_len = 0;
  for (const int len : lengths) max_len = std::max(max_len, len);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

  const std::vector<float> q = RandomVec(static_cast<size_t>(rows) * d, &rng);
  const std::vector<float> k = RandomVec(static_cast<size_t>(rows) * d, &rng);
  const std::vector<float> v = RandomVec(static_cast<size_t>(rows) * d, &rng);
  std::vector<float> kbt(static_cast<size_t>(rows) * d);
  std::vector<float> vb(static_cast<size_t>(rows) * d);
  nn::RepackHeadsKT(k.data(), rows, d, num_heads, kbt.data());
  nn::RepackHeadsVB(v.data(), rows, d, num_heads, vb.data());
  std::vector<float> probs(static_cast<size_t>(max_len) * max_len);
  size_t kept = 0;
  for (const int len : lengths) kept += static_cast<size_t>(len) * len;
  kept *= num_heads;

  for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
    const Kernels* table = nn::simd::TableFor(level);
    if (table == nullptr) continue;
    std::vector<float> out_packed(static_cast<size_t>(rows) * d, 0.0f);
    std::vector<float> out_blocked(static_cast<size_t>(rows) * d, -1.0f);
    table->attention_forward_packed(q.data(), k.data(), v.data(),
                                    out_packed.data(), layout.offsets.data(),
                                    layout.lengths.data(), layout.size(),
                                    num_heads, d, scale, nullptr);
    table->attention_forward_blocked(
        q.data(), kbt.data(), vb.data(), out_blocked.data(),
        layout.offsets.data(), layout.lengths.data(), layout.size(),
        num_heads, rows, d, scale, probs.data(), /*keep_probs=*/0);
    for (size_t i = 0; i < out_packed.size(); ++i) {
      ASSERT_EQ(out_packed[i], out_blocked[i])
          << "level " << table->name << " index " << i;
    }
    // Keeping the probabilities for the backward changes no output bit,
    // and both forwards keep the same probabilities in the same layout.
    std::vector<float> out_packed_kept(out_packed.size(), 0.0f);
    std::vector<float> out_blocked_kept(out_packed.size(), -1.0f);
    std::vector<float> probs_packed(kept, -1.0f), probs_blocked(kept, -2.0f);
    table->attention_forward_packed(
        q.data(), k.data(), v.data(), out_packed_kept.data(),
        layout.offsets.data(), layout.lengths.data(), layout.size(),
        num_heads, d, scale, probs_packed.data());
    table->attention_forward_blocked(
        q.data(), kbt.data(), vb.data(), out_blocked_kept.data(),
        layout.offsets.data(), layout.lengths.data(), layout.size(),
        num_heads, rows, d, scale, probs_blocked.data(), /*keep_probs=*/1);
    for (size_t i = 0; i < out_packed.size(); ++i) {
      ASSERT_EQ(out_packed[i], out_packed_kept[i])
          << "level " << table->name << " index " << i;
      ASSERT_EQ(out_packed[i], out_blocked_kept[i])
          << "level " << table->name << " index " << i;
    }
    for (size_t i = 0; i < kept; ++i) {
      ASSERT_EQ(probs_packed[i], probs_blocked[i])
          << "level " << table->name << " index " << i;
    }
  }
}

// --- Packed int8 GEMM -------------------------------------------------------

// Oracle for the tiled int8 GEMM: plain int32 dot products over the
// channel-contiguous operands a [m, k] and w [n, k]. Integer arithmetic is
// exact, so every level's packed kernel must match it bit for bit.
void ReferenceInt8Gemm(const int8_t* a, const int8_t* w, float* c, int m,
                       int k, int n, const float* a_scale,
                       const float* b_scale, const float* bias) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<int32_t>(a[static_cast<size_t>(i) * k + p]) *
               static_cast<int32_t>(w[static_cast<size_t>(j) * k + p]);
      }
      float y = static_cast<float>(acc) * a_scale[i] * b_scale[j];
      if (bias != nullptr) y += bias[j];
      c[static_cast<size_t>(i) * n + j] = y;
    }
  }
}

TEST(PackedKernelTest, Int8GemmPackedMatchesUnpackedBitwise) {
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  const Kernels* vec = VectorTable();
  util::Rng rng(93);
  // k not a multiple of 16 and n not a multiple of 4 exercise both padding
  // dimensions of the tile layout.
  const int shapes[][3] = {{1, 1, 1},   {3, 7, 5},   {2, 16, 4},
                           {5, 24, 6},  {17, 48, 33}, {4, 130, 99}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    const int k_pad = nn::simd::Int8PackedKPad(k);
    const std::vector<int8_t> a = RandomInt8(static_cast<size_t>(m) * k,
                                             &rng);
    const std::vector<int8_t> w = RandomInt8(static_cast<size_t>(n) * k,
                                             &rng);
    const std::vector<float> a_scale = RandomVec(m, &rng, 0.05f);
    const std::vector<float> b_scale = RandomVec(n, &rng, 0.05f);
    const std::vector<float> bias = RandomVec(n, &rng);

    // Padded activations: k tail of every row zeroed, as the caller
    // contract requires.
    std::vector<int8_t> a_pad(static_cast<size_t>(m) * k_pad, 0);
    for (int i = 0; i < m; ++i) {
      std::copy(a.begin() + static_cast<size_t>(i) * k,
                a.begin() + static_cast<size_t>(i) * k + k,
                a_pad.begin() + static_cast<size_t>(i) * k_pad);
    }
    std::vector<int16_t> packed(nn::simd::Int8PackedSize(k, n));
    nn::simd::PackInt8WeightTiles(w.data(), k, n, packed.data());

    for (const float* b_ptr : {bias.data(), static_cast<const float*>(
                                                nullptr)}) {
      std::vector<float> ref(static_cast<size_t>(m) * n, 0.0f);
      ReferenceInt8Gemm(a.data(), w.data(), ref.data(), m, k, n,
                        a_scale.data(), b_scale.data(), b_ptr);
      for (const Kernels* table : {scalar, vec}) {
        if (table == nullptr) continue;
        std::vector<float> got(static_cast<size_t>(m) * n, -1.0f);
        table->int8_gemm_packed(a_pad.data(), packed.data(), got.data(), m,
                                k, n, a_scale.data(), b_scale.data(), b_ptr);
        // Integer accumulation is exact, so the packed layout must
        // reproduce the unpacked result bit for bit at every level.
        for (size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(ref[i], got[i]) << "level " << table->name << " shape "
                                    << m << "x" << k << "x" << n << " index "
                                    << i << (b_ptr ? " bias" : " no-bias");
        }
      }
    }
  }
}

// --- quantize_buffer --------------------------------------------------------

TEST(PackedKernelTest, QuantizeBufferMatchesQuantizeValue) {
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  const Kernels* vec = VectorTable();
  util::Rng rng(94);
  const float scale = 0.25f;
  const float inv = 1.0f / scale;
  // Ties (x/scale = ±N.5) must round away from zero; large magnitudes
  // saturate to ±127; everything else rounds to nearest.
  std::vector<float> x = {0.0f,   -0.0f,  0.375f, -0.375f, 0.125f,
                          -0.125f, 31.75f, -31.75f, 1000.0f, -1000.0f,
                          0.124999f, 5.0f};
  std::vector<float> noise = RandomVec(21, &rng, 40.0f);
  x.insert(x.end(), noise.begin(), noise.end());
  for (const int n : {1, 7, static_cast<int>(x.size())}) {
    for (const Kernels* table : {scalar, vec}) {
      if (table == nullptr) continue;
      std::vector<int8_t> out(n, 99);
      table->quantize_buffer(x.data(), n, inv, out.data());
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], nn::QuantizeValue(x[i], inv))
            << "level " << table->name << " n " << n << " x " << x[i];
      }
    }
  }
  // Explicit tie spot-checks against hand-computed values.
  const float tie[] = {0.375f, -0.375f};  // /0.25 = 1.5, -1.5
  int8_t got[2];
  scalar->quantize_buffer(tie, 2, inv, got);
  EXPECT_EQ(got[0], 2);
  EXPECT_EQ(got[1], -2);
  const float sat[] = {1000.0f, -1000.0f};
  scalar->quantize_buffer(sat, 2, inv, got);
  EXPECT_EQ(got[0], 127);
  EXPECT_EQ(got[1], -127);
}

// --- Packed encoder vs per-plan Encode at adversarial shapes ----------------
//
// The packing/unpacking property: for every batch shape, SIMD level, and
// thread count, packed EncodeBatch must reproduce the per-plan Encode
// path — bitwise at forced scalar, within epsilon at the hardware level
// (the vector exp is the one sanctioned divergence).

void CheckPackedMatchesPerPlan(const encoder::TransformerPlanEncoder& enc,
                               std::span<const plan::PlanNode* const> ptrs,
                               bool bitwise, const char* what) {
  nn::NoGradGuard no_grad;
  const std::vector<nn::Tensor> batched = enc.EncodeBatch(ptrs, nullptr);
  ASSERT_EQ(batched.size(), ptrs.size());
  for (size_t i = 0; i < ptrs.size(); ++i) {
    const nn::Tensor single = enc.Encode(*ptrs[i], nullptr);
    ASSERT_EQ(batched[i].rows(), 1);
    ASSERT_EQ(batched[i].cols(), single.cols());
    for (int c = 0; c < single.cols(); ++c) {
      if (bitwise) {
        ASSERT_EQ(batched[i].at(0, c), single.at(0, c))
            << what << " plan " << i << " dim " << c;
      } else {
        const float a = single.at(0, c);
        const float tol = 1e-6f * (1.0f + std::fabs(a));
        ASSERT_NEAR(a, batched[i].at(0, c), tol)
            << what << " plan " << i << " dim " << c;
      }
    }
  }
}

TEST(PackedEncoderTest, AdversarialShapesAcrossLevelsAndThreads) {
  SimdLevelGuard level_guard;
  ThreadCountGuard thread_guard;
  util::Rng rng(95);
  // max_len 16: the deep plan below truncates while the tiny ones fit.
  encoder::StructureEncoderConfig config = SmallConfig();
  config.max_len = 16;
  const encoder::TransformerPlanEncoder enc(config, &rng);

  // Batch of 1; a batch of uniformly tiny plans; one deep (truncated) plan
  // among tiny ones — the max_len row next to length-3 rows is the worst
  // case for the ragged layout.
  const auto single = SamplePlans(1, 201);
  auto tiny = SamplePlans(9, 202, /*min_nodes=*/1, /*max_nodes=*/2);
  auto mixed = SamplePlans(6, 203, /*min_nodes=*/1, /*max_nodes=*/2);
  auto deep = SamplePlans(1, 204, /*min_nodes=*/40, /*max_nodes=*/60);
  mixed.insert(mixed.begin() + 3, std::move(deep[0]));

  struct Case {
    const char* name;
    std::vector<const plan::PlanNode*> ptrs;
  };
  const Case cases[] = {{"batch-of-1", Pointers(single)},
                        {"all-tiny", Pointers(tiny)},
                        {"deep-among-tiny", Pointers(mixed)}};

  for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
    if (nn::simd::ForceLevel(level) != level) continue;  // sanitize build
    const bool bitwise = level == Level::kScalar;
    for (const int threads : {1, 4}) {
      util::SetMaxThreads(threads);
      for (const Case& c : cases) {
        CheckPackedMatchesPerPlan(
            enc, c.ptrs, bitwise,
            (std::string(c.name) + " level " +
             nn::simd::LevelName(level) + " threads " +
             std::to_string(threads))
                .c_str());
      }
    }
  }
}

// --- Packed training vs per-plan op chain -----------------------------------
//
// PerPlanEncoder routes EncodeBatchGrad through the base class's per-plan
// Encode loop (the gradient-bit reference). The packed training path must
// match it bit for bit — forward values, dropout streams, and every
// accumulated parameter gradient — at EVERY SIMD level (the blocked
// attention kernel matches the interleaved one bit for bit at every level,
// and everything else dispatches the same kernel table; there is no
// sanctioned divergence like the inference exp).

class PerPlanEncoder : public encoder::TransformerPlanEncoder {
 public:
  using TransformerPlanEncoder::TransformerPlanEncoder;
  std::vector<nn::Tensor> EncodeBatchGrad(
      std::span<const plan::PlanNode* const> plans,
      util::Rng* dropout_rng) const override {
    return PlanSequenceEncoder::EncodeBatchGrad(plans, dropout_rng);
  }
};

std::vector<std::vector<float>> ParamGrads(const nn::Module& m) {
  std::vector<std::vector<float>> grads;
  for (const auto& [name, tensor] : m.NamedParameters()) {
    grads.push_back(tensor.grad());
  }
  return grads;
}

TEST(PackedTrainTest, EncodeBatchGradMatchesPerPlanBitwise) {
  SimdLevelGuard level_guard;
  for (const bool projection : {false, true}) {
    encoder::StructureEncoderConfig config = SmallConfig();
    config.dropout = 0.25f;  // exercises the mask-stream contract
    config.output_dim = projection ? 10 : 0;
    // Same seed, so both encoders start from identical weights.
    util::Rng packed_init(101), per_plan_init(101);
    encoder::TransformerPlanEncoder packed_enc(config, &packed_init);
    PerPlanEncoder per_plan_enc(config, &per_plan_init);
    packed_enc.SetTraining(true);
    per_plan_enc.SetTraining(true);
    const auto plans = SamplePlans(5, 212);
    const auto ptrs = Pointers(plans);

    for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
      if (nn::simd::ForceLevel(level) != level) continue;  // sanitize build
      auto run = [&](encoder::TransformerPlanEncoder& enc) {
        enc.ZeroGrad();
        util::Rng dropout_rng(7);
        const std::vector<nn::Tensor> outs =
            enc.EncodeBatchGrad(ptrs, &dropout_rng);
        // Distinct per-plan weights so a swapped or misrouted gradient
        // cannot cancel out.
        nn::Tensor loss = Sum(outs[0]);
        for (size_t i = 1; i < outs.size(); ++i) {
          loss = Add(loss, Scale(Sum(outs[i]), 0.5f + static_cast<float>(i)));
        }
        loss.Backward();
        std::vector<std::vector<float>> values;
        for (const nn::Tensor& t : outs) values.push_back(t.value());
        return std::make_pair(values, ParamGrads(enc));
      };
      const auto per_plan = run(per_plan_enc);
      const auto packed = run(packed_enc);
      ASSERT_EQ(per_plan.first.size(), packed.first.size());
      for (size_t i = 0; i < per_plan.first.size(); ++i) {
        ASSERT_EQ(per_plan.first[i], packed.first[i])
            << "values, plan " << i << " level " << nn::simd::LevelName(level)
            << (projection ? " projection" : "");
      }
      ASSERT_EQ(per_plan.second.size(), packed.second.size());
      for (size_t i = 0; i < per_plan.second.size(); ++i) {
        ASSERT_EQ(per_plan.second[i], packed.second[i])
            << "grads, param " << i << " level " << nn::simd::LevelName(level)
            << (projection ? " projection" : "");
      }
    }
  }
}

TEST(PackedTrainTest, TrainPpsrPackedKnobAndThreadsMatchBitwise) {
  // End-to-end: whole TrainPpsr runs (dropout, Adam, grad clipping, shard
  // reduction) must land on bit-identical weights with the packed training
  // path or the per-plan reference, at 1 or 4 threads.
  data::PairDatasetOptions options;
  options.num_pairs = 27;
  options.corpus.min_nodes = 4;
  options.corpus.max_nodes = 12;
  const data::PlanPairDataset dataset = BuildCorpusPairDataset(options);

  SimdLevelGuard level_guard;
  ThreadCountGuard thread_guard;
  encoder::StructureEncoderConfig config = SmallConfig();
  config.dropout = 0.1f;
  config.output_dim = 10;

  auto train = [&](bool packed, int threads) {
    util::SetMaxThreads(threads);
    util::Rng rng(42);
    std::unique_ptr<encoder::TransformerPlanEncoder> enc;
    if (packed) {
      enc = std::make_unique<encoder::TransformerPlanEncoder>(config, &rng);
    } else {
      enc = std::make_unique<PerPlanEncoder>(config, &rng);
    }
    encoder::PpsrModel model(std::move(enc), &rng);
    encoder::PpsrTrainOptions train_options;
    train_options.epochs = 2;
    TrainPpsr(&model, dataset.train, train_options);
    std::vector<std::vector<float>> values;
    for (const auto& [name, tensor] : model.NamedParameters()) {
      values.push_back(tensor.value());
    }
    return values;
  };

  for (const Level level : {Level::kScalar, nn::simd::HardwareLevel()}) {
    if (nn::simd::ForceLevel(level) != level) continue;  // sanitize build
    const auto reference = train(/*packed=*/false, 1);
    const struct {
      bool packed;
      int threads;
    } cases[] = {{true, 1}, {true, 4}, {false, 4}};
    for (const auto& c : cases) {
      const auto got = train(c.packed, c.threads);
      ASSERT_EQ(reference.size(), got.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(reference[i], got[i])
            << "param " << i << " level " << nn::simd::LevelName(level)
            << (c.packed ? " packed" : " per-plan") << " threads "
            << c.threads;
      }
    }
  }
}

// --- Arena steady state -----------------------------------------------------

TEST(PackedSteadyStateTest, ZeroArenaTrafficAndGrowthAfterWarmup) {
  // After warmup, repeated identical micro-batches through the serving
  // facade must touch the arena zero times (the packed workspace persists,
  // results are built outside any arena) and never grow the workspace.
  ThreadCountGuard thread_guard;
  util::SetMaxThreads(1);
  util::Rng rng(99);
  const encoder::TransformerPlanEncoder enc(SmallConfig(), &rng);
  serve::EmbeddingServiceConfig config;
  config.enable_cache = false;  // every request re-encodes every plan
  config.batch_size = 8;
  serve::EmbeddingService service(&enc, config);
  const auto plans = SamplePlans(24, 209);
  const auto ptrs = Pointers(plans);

  for (int warm = 0; warm < 3; ++warm) (void)service.EncodeAll(ptrs);

  const nn::MemoryStats before = nn::GlobalMemoryStats();
  const uint64_t growth_before = nn::PackedBatch::TotalGrowthEvents();
  for (int iter = 0; iter < 5; ++iter) (void)service.EncodeAll(ptrs);
  const nn::MemoryStats after = nn::GlobalMemoryStats();
  const uint64_t growth_after = nn::PackedBatch::TotalGrowthEvents();

  EXPECT_EQ(after.bytes_requested, before.bytes_requested);
  EXPECT_EQ(after.arena_hits, before.arena_hits);
  EXPECT_EQ(after.arena_misses, before.arena_misses);
  EXPECT_EQ(growth_after, growth_before);
  EXPECT_EQ(service.GetStats().packed_growth_events, growth_after);
}

TEST(PackedSteadyStateTest, LargerBatchRecordsGrowthEvent) {
  // The growth telemetry must actually fire when the high-water mark
  // moves: encoding a strictly larger batch after warmup grows at least
  // one workspace buffer.
  ThreadCountGuard thread_guard;
  util::SetMaxThreads(1);
  util::Rng rng(100);
  encoder::StructureEncoderConfig config = SmallConfig();
  const encoder::TransformerPlanEncoder enc(config, &rng);
  nn::NoGradGuard no_grad;
  const auto small = SamplePlans(2, 210, /*min_nodes=*/1, /*max_nodes=*/2);
  (void)enc.EncodeBatch(Pointers(small), nullptr);
  (void)enc.EncodeBatch(Pointers(small), nullptr);

  const uint64_t before = nn::PackedBatch::TotalGrowthEvents();
  const auto big = SamplePlans(32, 211, /*min_nodes=*/20, /*max_nodes=*/24);
  (void)enc.EncodeBatch(Pointers(big), nullptr);
  EXPECT_GT(nn::PackedBatch::TotalGrowthEvents(), before);
}

}  // namespace
}  // namespace qpe
