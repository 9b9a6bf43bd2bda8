// SIMD dispatch + int8 quantization tests: forced-scalar vs vectorized
// kernel parity at odd sizes (tail-lane handling), dispatch/env parsing,
// quantization round-trip, the fused LinearRowBias node, and the
// accuracy-delta gate for the int8 quantized plan encoder.

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/plan_corpus.h"
#include "encoder/quantized_encoder.h"
#include "encoder/structure_encoder.h"
#include "gtest/gtest.h"
#include "nn/quant.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "nn/transformer.h"
#include "plan/plan_node.h"
#include "serve/embedding_service.h"
#include "util/rng.h"

namespace qpe {
namespace {

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

std::vector<float> RandomVec(size_t n, util::Rng* rng, float scale = 1.0f) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = scale * static_cast<float>(rng->Uniform() * 2.0 - 1.0);
  }
  return v;
}

// Epsilon contract for the float kernels: vector results must stay within
// tight relative error of the scalar reference. Most kernels are
// bit-identical by construction; the softmax/attention kernels use the
// allowance for their polynomial vector exp (~2 ulp vs std::exp), which
// is well inside this bound.
void ExpectAllNear(const std::vector<float>& a, const std::vector<float>& b,
                   float eps = 1e-6f) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const float tol = eps * (1.0f + std::fabs(a[i]));
    ASSERT_NEAR(a[i], b[i], tol) << "index " << i;
  }
}

// The vector table compiled into this binary (if the hardware supports
// it); null means scalar-only hardware, in which case parity tests
// trivially pass on the scalar table itself.
const Kernels* VectorTable() {
  return nn::simd::TableFor(nn::simd::HardwareLevel());
}

// --- Dispatch machinery -----------------------------------------------------

TEST(SimdDispatchTest, ParseLevel) {
  EXPECT_EQ(nn::simd::ParseLevel("0", Level::kAvx2), Level::kScalar);
  EXPECT_EQ(nn::simd::ParseLevel("scalar", Level::kAvx2), Level::kScalar);
  EXPECT_EQ(nn::simd::ParseLevel("off", Level::kAvx2), Level::kScalar);
  EXPECT_EQ(nn::simd::ParseLevel("avx2", Level::kScalar), Level::kAvx2);
  EXPECT_EQ(nn::simd::ParseLevel("neon", Level::kScalar), Level::kNeon);
  EXPECT_EQ(nn::simd::ParseLevel("1", Level::kAvx2), Level::kAvx2);
  EXPECT_EQ(nn::simd::ParseLevel("auto", Level::kNeon), Level::kNeon);
  EXPECT_EQ(nn::simd::ParseLevel("", Level::kAvx2), Level::kAvx2);
  EXPECT_EQ(nn::simd::ParseLevel(nullptr, Level::kScalar), Level::kScalar);
  EXPECT_EQ(nn::simd::ParseLevel("garbage", Level::kAvx2), Level::kAvx2);
}

TEST(SimdDispatchTest, ScalarTableAlwaysAvailable) {
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->level, Level::kScalar);
  EXPECT_STREQ(scalar->name, "scalar");
}

TEST(SimdDispatchTest, ActiveTableMatchesLevel) {
  EXPECT_EQ(nn::simd::K().level, nn::simd::ActiveLevel());
  EXPECT_STREQ(nn::simd::LevelName(nn::simd::ActiveLevel()),
               nn::simd::K().name);
}

TEST(SimdDispatchTest, ForceLevelClampsToAvailable) {
  SimdLevelGuard guard;
  // Scalar is always installable.
  EXPECT_EQ(nn::simd::ForceLevel(Level::kScalar), Level::kScalar);
  EXPECT_EQ(nn::simd::ActiveLevel(), Level::kScalar);
#if !defined(QPE_SANITIZE_BUILD)
  // Forcing the hardware's own level reinstalls it; forcing a level this
  // binary does not implement clamps to scalar.
  const Level hw = nn::simd::HardwareLevel();
  EXPECT_EQ(nn::simd::ForceLevel(hw), hw);
#if defined(QPE_HAVE_AVX2)
  EXPECT_EQ(nn::simd::ForceLevel(Level::kNeon), Level::kScalar);
#elif defined(QPE_HAVE_NEON)
  EXPECT_EQ(nn::simd::ForceLevel(Level::kAvx2), Level::kScalar);
#endif
#else
  // Sanitizer builds pin the dispatch to scalar regardless of request.
  EXPECT_EQ(nn::simd::ForceLevel(nn::simd::HardwareLevel()), Level::kScalar);
#endif
}

// --- Kernel parity: forced scalar vs vectorized, odd sizes ------------------
//
// Row/column counts deliberately include 1, 3, 17 and 129: not multiples of
// any vector width, so every kernel's tail-lane path executes.

TEST(SimdParityTest, MatMulForwardRange) {
  const Kernels* vec = VectorTable();
  ASSERT_NE(vec, nullptr);
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(42);
  const int shapes[][3] = {{1, 1, 1},   {3, 7, 5},    {17, 48, 33},
                           {129, 64, 129}, {2, 3, 300}, {5, 129, 17}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
    // Sprinkle zeros so the sparsity skip in the kernel is exercised.
    for (size_t i = 0; i < a.size(); i += 5) a[i] = 0.0f;
    const std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
    std::vector<float> out_s(static_cast<size_t>(m) * n, 0.0f);
    std::vector<float> out_v(static_cast<size_t>(m) * n, 0.0f);
    scalar->matmul_forward_range(a.data(), b.data(), out_s.data(), 0, m, k, n);
    vec->matmul_forward_range(a.data(), b.data(), out_v.data(), 0, m, k, n);
    ExpectAllNear(out_s, out_v);
  }
}

TEST(SimdParityTest, BiasRelu) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(43);
  for (const int m : {1, 3, 17, 129}) {
    for (const int n : {1, 3, 8, 17, 48, 129}) {
      const std::vector<float> a = RandomVec(static_cast<size_t>(m) * n, &rng);
      const std::vector<float> bias = RandomVec(n, &rng);
      std::vector<float> out_s(a.size()), out_v(a.size());
      scalar->bias_relu(a.data(), bias.data(), out_s.data(), m, n);
      vec->bias_relu(a.data(), bias.data(), out_v.data(), m, n);
      ExpectAllNear(out_s, out_v);
    }
  }
}

TEST(SimdParityTest, LayerNormRows) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(44);
  for (const int m : {1, 3, 17, 129}) {
    for (const int n : {1, 3, 17, 48, 129}) {
      const std::vector<float> x =
          RandomVec(static_cast<size_t>(m) * n, &rng, 3.0f);
      const std::vector<float> gamma = RandomVec(n, &rng);
      const std::vector<float> beta = RandomVec(n, &rng);
      const float invn = 1.0f / static_cast<float>(n);
      std::vector<float> out_s(x.size()), out_v(x.size());
      scalar->layer_norm_rows(x.data(), gamma.data(), beta.data(),
                              out_s.data(), m, n, invn);
      vec->layer_norm_rows(x.data(), gamma.data(), beta.data(), out_v.data(),
                           m, n, invn);
      ExpectAllNear(out_s, out_v);
    }
  }
}

TEST(SimdParityTest, SoftmaxRowsMasked) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(45);
  for (const int m : {1, 3, 17}) {
    for (const int n : {1, 3, 17, 129}) {
      const std::vector<float> a =
          RandomVec(static_cast<size_t>(m) * n, &rng, 4.0f);
      std::vector<int> valid(m);
      for (int r = 0; r < m; ++r) {
        valid[r] = 1 + static_cast<int>(rng.Uniform() * n);
      }
      if (m > 2) valid[m - 1] = 0;  // fully masked row stays zero
      std::vector<float> out_s(a.size(), 0.0f), out_v(a.size(), 0.0f);
      scalar->softmax_rows_masked(a.data(), out_s.data(), valid.data(), m, n);
      vec->softmax_rows_masked(a.data(), out_v.data(), valid.data(), m, n);
      ExpectAllNear(out_s, out_v);
    }
  }
}

TEST(SimdParityTest, AttentionForwardPacked) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(46);
  struct Case {
    std::vector<int> lengths;
    int num_heads;
    int dim;
  };
  const Case cases[] = {
      {{1}, 1, 7},                 // single token, odd head dim
      {{3, 17, 1}, 4, 48},         // model-shaped heads, ragged batch
      {{29, 5}, 2, 24},            // odd lengths
      {{129}, 4, 48},              // long sequence crosses lane blocks
  };
  for (const Case& c : cases) {
    std::vector<int> offsets;
    int total = 0;
    for (const int len : c.lengths) {
      offsets.push_back(total);
      total += len;
    }
    const float scale =
        1.0f / std::sqrt(static_cast<float>(c.dim / c.num_heads));
    const std::vector<float> q =
        RandomVec(static_cast<size_t>(total) * c.dim, &rng);
    const std::vector<float> k =
        RandomVec(static_cast<size_t>(total) * c.dim, &rng);
    const std::vector<float> v =
        RandomVec(static_cast<size_t>(total) * c.dim, &rng);
    std::vector<float> out_s(q.size(), 0.0f), out_v(q.size(), 0.0f);
    scalar->attention_forward_packed(
        q.data(), k.data(), v.data(), out_s.data(), offsets.data(),
        c.lengths.data(), static_cast<int>(c.lengths.size()), c.num_heads,
        c.dim, scale, nullptr);
    vec->attention_forward_packed(
        q.data(), k.data(), v.data(), out_v.data(), offsets.data(),
        c.lengths.data(), static_cast<int>(c.lengths.size()), c.num_heads,
        c.dim, scale, nullptr);
    ExpectAllNear(out_s, out_v);
  }
}

// --- Backward kernel parity -------------------------------------------------
//
// The backward table's contract is stricter than the forward epsilon: every
// kernel preserves the scalar accumulation order per gradient element, so
// scalar and vector tables must match BIT FOR BIT, including at adversarial
// odd shapes where only the tail lanes run (attention_backward_packed given
// the same probabilities; each level's forward computes its own).
// Gradient buffers accumulate (+=), so each case seeds both tables' buffers
// with identical random prior values to cover the accumulate path too.

TEST(SimdParityTest, MatMulBackwardABitExact) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(51);
  const int shapes[][3] = {{1, 1, 1},   {3, 7, 5},    {17, 48, 33},
                           {129, 64, 129}, {2, 3, 300}, {5, 129, 17}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    const std::vector<float> og = RandomVec(static_cast<size_t>(m) * n, &rng);
    const std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
    std::vector<float> ag_s = RandomVec(static_cast<size_t>(m) * k, &rng);
    std::vector<float> ag_v = ag_s;
    // Split the row range to exercise the sharded [i0, i1) entry point.
    const int mid = m / 2;
    scalar->matmul_backward_a(og.data(), b.data(), ag_s.data(), 0, mid, k, n);
    scalar->matmul_backward_a(og.data(), b.data(), ag_s.data(), mid, m, k, n);
    vec->matmul_backward_a(og.data(), b.data(), ag_v.data(), 0, mid, k, n);
    vec->matmul_backward_a(og.data(), b.data(), ag_v.data(), mid, m, k, n);
    for (size_t i = 0; i < ag_s.size(); ++i) {
      ASSERT_EQ(ag_s[i], ag_v[i]) << "index " << i;
    }
  }
}

TEST(SimdParityTest, MatMulBackwardBBitExact) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(52);
  const int shapes[][3] = {{1, 1, 1},   {3, 7, 5},    {17, 48, 33},
                           {129, 64, 129}, {2, 3, 300}, {5, 129, 17}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
    // Sprinkle zeros: the aval == 0 skip must be kept at every level.
    for (size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
    const std::vector<float> og = RandomVec(static_cast<size_t>(m) * n, &rng);
    std::vector<float> bg_s = RandomVec(static_cast<size_t>(k) * n, &rng);
    std::vector<float> bg_v = bg_s;
    const int mid = k / 2;
    scalar->matmul_backward_b(a.data(), og.data(), bg_s.data(), 0, mid, m, k,
                              n);
    scalar->matmul_backward_b(a.data(), og.data(), bg_s.data(), mid, k, m, k,
                              n);
    vec->matmul_backward_b(a.data(), og.data(), bg_v.data(), 0, mid, m, k, n);
    vec->matmul_backward_b(a.data(), og.data(), bg_v.data(), mid, k, m, k, n);
    for (size_t i = 0; i < bg_s.size(); ++i) {
      ASSERT_EQ(bg_s[i], bg_v[i]) << "index " << i;
    }
  }
}

TEST(SimdParityTest, BiasActBackwardBitExact) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(53);
  for (const int m : {1, 3, 17, 129}) {
    for (const int n : {1, 3, 17, 48, 129}) {
      const size_t total = static_cast<size_t>(m) * n;
      // Forward output of bias_relu: nonnegative with exact zeros where the
      // pre-activation was clamped, so the > 0 gate sees both branches.
      const std::vector<float> pre = RandomVec(total, &rng);
      const std::vector<float> bias = RandomVec(n, &rng, 0.25f);
      std::vector<float> ov(total);
      scalar->bias_relu(pre.data(), bias.data(), ov.data(), m, n);
      const std::vector<float> og = RandomVec(total, &rng);
      std::vector<float> ag_s = RandomVec(total, &rng), ag_v = ag_s;
      std::vector<float> bg_s = RandomVec(n, &rng), bg_v = bg_s;
      scalar->bias_act_backward(ov.data(), og.data(), ag_s.data(), bg_s.data(),
                                m, n);
      vec->bias_act_backward(ov.data(), og.data(), ag_v.data(), bg_v.data(), m,
                             n);
      for (size_t i = 0; i < total; ++i) {
        ASSERT_EQ(ag_s[i], ag_v[i]) << "ag " << i;
      }
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(bg_s[i], bg_v[i]) << "bg " << i;
      }
      // Nullable-gradient paths: ag only, then bg only.
      std::vector<float> ag2_s = ag_s, ag2_v = ag_v;
      scalar->bias_act_backward(ov.data(), og.data(), ag2_s.data(), nullptr, m,
                                n);
      vec->bias_act_backward(ov.data(), og.data(), ag2_v.data(), nullptr, m,
                             n);
      std::vector<float> bg2_s = bg_s, bg2_v = bg_v;
      scalar->bias_act_backward(ov.data(), og.data(), nullptr, bg2_s.data(), m,
                                n);
      vec->bias_act_backward(ov.data(), og.data(), nullptr, bg2_v.data(), m,
                             n);
      for (size_t i = 0; i < total; ++i) {
        ASSERT_EQ(ag2_s[i], ag2_v[i]) << "ag-only " << i;
      }
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(bg2_s[i], bg2_v[i]) << "bg-only " << i;
      }
    }
  }
}

TEST(SimdParityTest, LayerNormRowsBackwardBitExact) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(54);
  for (const int m : {1, 3, 17, 129}) {
    for (const int n : {1, 3, 17, 48, 129}) {
      const size_t total = static_cast<size_t>(m) * n;
      const std::vector<float> x = RandomVec(total, &rng, 3.0f);
      const std::vector<float> gamma = RandomVec(n, &rng);
      const std::vector<float> og = RandomVec(total, &rng);
      const float invn = 1.0f / static_cast<float>(n);
      std::vector<float> xg_s = RandomVec(total, &rng), xg_v = xg_s;
      std::vector<float> gg_s = RandomVec(n, &rng), gg_v = gg_s;
      std::vector<float> bg_s = RandomVec(n, &rng), bg_v = bg_s;
      scalar->layer_norm_rows_backward(x.data(), gamma.data(), og.data(),
                                       xg_s.data(), gg_s.data(), bg_s.data(),
                                       m, n, invn);
      vec->layer_norm_rows_backward(x.data(), gamma.data(), og.data(),
                                    xg_v.data(), gg_v.data(), bg_v.data(), m,
                                    n, invn);
      for (size_t i = 0; i < total; ++i) {
        ASSERT_EQ(xg_s[i], xg_v[i]) << "xg " << i;
      }
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(gg_s[i], gg_v[i]) << "gg " << i;
        ASSERT_EQ(bg_s[i], bg_v[i]) << "bg " << i;
      }
      // Input-grad-only path (frozen affine params).
      std::vector<float> xg2_s = xg_s, xg2_v = xg_v;
      scalar->layer_norm_rows_backward(x.data(), gamma.data(), og.data(),
                                       xg2_s.data(), nullptr, nullptr, m, n,
                                       invn);
      vec->layer_norm_rows_backward(x.data(), gamma.data(), og.data(),
                                    xg2_v.data(), nullptr, nullptr, m, n,
                                    invn);
      for (size_t i = 0; i < total; ++i) {
        ASSERT_EQ(xg2_s[i], xg2_v[i]) << "xg-only " << i;
      }
    }
  }
}

TEST(SimdParityTest, SoftmaxRowsMaskedBackwardBitExact) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(55);
  for (const int m : {1, 3, 17}) {
    for (const int n : {1, 3, 17, 129}) {
      const size_t total = static_cast<size_t>(m) * n;
      const std::vector<float> logits = RandomVec(total, &rng, 4.0f);
      std::vector<int> valid(m);
      for (int r = 0; r < m; ++r) {
        valid[r] = 1 + static_cast<int>(rng.Uniform() * n);
      }
      if (m > 2) valid[m - 1] = 0;  // fully masked row contributes nothing
      // Both tables consume the SAME forward probabilities (the scalar
      // ones): the backward itself must be bit-exact given equal inputs.
      std::vector<float> y(total, 0.0f);
      scalar->softmax_rows_masked(logits.data(), y.data(), valid.data(), m, n);
      const std::vector<float> gy = RandomVec(total, &rng);
      std::vector<float> gx_s = RandomVec(total, &rng), gx_v = gx_s;
      scalar->softmax_rows_masked_backward(y.data(), gy.data(), gx_s.data(),
                                           valid.data(), m, n);
      vec->softmax_rows_masked_backward(y.data(), gy.data(), gx_v.data(),
                                        valid.data(), m, n);
      for (size_t i = 0; i < total; ++i) {
        ASSERT_EQ(gx_s[i], gx_v[i]) << "gx " << i;
      }
    }
  }
}

TEST(SimdParityTest, AttentionBackwardPacked) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(56);
  struct Case {
    std::vector<int> lengths;
    int num_heads;
    int dim;
  };
  const Case cases[] = {
      {{1}, 1, 7},          // single token, odd head dim
      {{3, 17, 1}, 4, 48},  // model-shaped heads, ragged batch
      {{29, 5}, 2, 24},     // odd lengths
      {{129}, 4, 48},       // long sequence crosses lane blocks
  };
  for (const Case& c : cases) {
    std::vector<int> offsets;
    int total = 0;
    size_t kept = 0;
    for (const int len : c.lengths) {
      offsets.push_back(total);
      total += len;
      kept += static_cast<size_t>(len) * len * c.num_heads;
    }
    const int num_seqs = static_cast<int>(c.lengths.size());
    const float scale =
        1.0f / std::sqrt(static_cast<float>(c.dim / c.num_heads));
    const size_t size = static_cast<size_t>(total) * c.dim;
    const std::vector<float> q = RandomVec(size, &rng);
    const std::vector<float> k = RandomVec(size, &rng);
    const std::vector<float> v = RandomVec(size, &rng);
    const std::vector<float> og = RandomVec(size, &rng);
    // Each level's backward reads the probabilities its own forward kept.
    std::vector<float> out(size), probs_s(kept), probs_v(kept);
    scalar->attention_forward_packed(q.data(), k.data(), v.data(), out.data(),
                                     offsets.data(), c.lengths.data(),
                                     num_seqs, c.num_heads, c.dim, scale,
                                     probs_s.data());
    vec->attention_forward_packed(q.data(), k.data(), v.data(), out.data(),
                                  offsets.data(), c.lengths.data(), num_seqs,
                                  c.num_heads, c.dim, scale, probs_v.data());
    std::vector<float> qg_s = RandomVec(size, &rng), qg_v = qg_s;
    std::vector<float> kg_s = RandomVec(size, &rng), kg_v = kg_s;
    std::vector<float> vg_s = RandomVec(size, &rng), vg_v = vg_s;
    const std::vector<float> qg0 = qg_s, kg0 = kg_s, vg0 = vg_s;
    scalar->attention_backward_packed(q.data(), k.data(), v.data(), og.data(),
                                      probs_s.data(), qg_s.data(),
                                      kg_s.data(), vg_s.data(),
                                      offsets.data(), c.lengths.data(),
                                      num_seqs, c.num_heads, c.dim, scale);
    vec->attention_backward_packed(q.data(), k.data(), v.data(), og.data(),
                                   probs_v.data(), qg_v.data(), kg_v.data(),
                                   vg_v.data(), offsets.data(),
                                   c.lengths.data(), num_seqs, c.num_heads,
                                   c.dim, scale);
    // The forward's softmax goes through V::Exp, so (exactly like the
    // forward) cross-level equality is epsilon-gated rather than bitwise.
    ExpectAllNear(qg_s, qg_v);
    ExpectAllNear(kg_s, kg_v);
    ExpectAllNear(vg_s, vg_v);
    // Given the same probabilities, every level produces the scalar bits.
    std::vector<float> qg_x = qg0, kg_x = kg0, vg_x = vg0;
    vec->attention_backward_packed(q.data(), k.data(), v.data(), og.data(),
                                   probs_s.data(), qg_x.data(), kg_x.data(),
                                   vg_x.data(), offsets.data(),
                                   c.lengths.data(), num_seqs, c.num_heads,
                                   c.dim, scale);
    for (size_t i = 0; i < size; ++i) {
      ASSERT_EQ(qg_s[i], qg_x[i]) << "qg index " << i;
      ASSERT_EQ(kg_s[i], kg_x[i]) << "kg index " << i;
      ASSERT_EQ(vg_s[i], vg_x[i]) << "vg index " << i;
    }
    // vg-only path (frozen q/k projections upstream).
    std::vector<float> vg2_s = vg_s, vg2_v = vg_v;
    scalar->attention_backward_packed(
        q.data(), k.data(), v.data(), og.data(), probs_s.data(), nullptr,
        nullptr, vg2_s.data(), offsets.data(), c.lengths.data(), num_seqs,
        c.num_heads, c.dim, scale);
    vec->attention_backward_packed(q.data(), k.data(), v.data(), og.data(),
                                   probs_v.data(), nullptr, nullptr,
                                   vg2_v.data(), offsets.data(),
                                   c.lengths.data(), num_seqs, c.num_heads,
                                   c.dim, scale);
    ExpectAllNear(vg2_s, vg2_v);
  }
}

// Dispatched ops keep producing the same bits when the level is forced
// down to scalar: the autograd kernels' contract with the rest of the repo.
TEST(SimdParityTest, DispatchedOpsBitIdenticalScalarVsVector) {
  SimdLevelGuard guard;
  util::Rng rng(48);
  const nn::Tensor a = nn::Tensor::Xavier(17, 23, &rng);
  const nn::Tensor b = nn::Tensor::Xavier(23, 9, &rng);
  const nn::Tensor bias = nn::Tensor::Xavier(1, 9, &rng);

  nn::simd::ForceLevel(nn::simd::HardwareLevel());
  const nn::Tensor vec_mm = MatMul(a, b);
  const nn::Tensor vec_lin = LinearRowBias(a, b, bias);
  nn::simd::ForceLevel(Level::kScalar);
  const nn::Tensor sc_mm = MatMul(a, b);
  const nn::Tensor sc_lin = LinearRowBias(a, b, bias);

  for (int i = 0; i < vec_mm.numel(); ++i) {
    ASSERT_EQ(vec_mm.value()[i], sc_mm.value()[i]);
    ASSERT_EQ(vec_lin.value()[i], sc_lin.value()[i]);
  }
}

// --- LinearRowBias ----------------------------------------------------------

TEST(LinearRowBiasTest, ForwardBitIdenticalToChain) {
  util::Rng rng(49);
  const nn::Tensor x = nn::Tensor::Xavier(13, 29, &rng);
  const nn::Tensor w = nn::Tensor::Xavier(29, 11, &rng);
  const nn::Tensor bias = nn::Tensor::Xavier(1, 11, &rng);
  const nn::Tensor fused = LinearRowBias(x, w, bias);
  const nn::Tensor chain = Add(MatMul(x, w), bias);
  ASSERT_EQ(fused.rows(), chain.rows());
  ASSERT_EQ(fused.cols(), chain.cols());
  for (int i = 0; i < fused.numel(); ++i) {
    ASSERT_EQ(fused.value()[i], chain.value()[i]) << "index " << i;
  }
}

TEST(LinearRowBiasTest, BackwardMatchesChain) {
  util::Rng rng(50);
  const nn::Tensor x0 = nn::Tensor::Xavier(7, 19, &rng);
  const nn::Tensor w0 = nn::Tensor::Xavier(19, 5, &rng);
  const nn::Tensor b0 = nn::Tensor::Xavier(1, 5, &rng);
  const nn::Tensor xa = nn::Tensor::FromVector(7, 19, x0.value(), true);
  const nn::Tensor wa = nn::Tensor::FromVector(19, 5, w0.value(), true);
  const nn::Tensor ba = nn::Tensor::FromVector(1, 5, b0.value(), true);
  const nn::Tensor xb = nn::Tensor::FromVector(7, 19, x0.value(), true);
  const nn::Tensor wb = nn::Tensor::FromVector(19, 5, w0.value(), true);
  const nn::Tensor bb = nn::Tensor::FromVector(1, 5, b0.value(), true);
  Sum(LinearRowBias(xa, wa, ba)).Backward();
  Sum(Add(MatMul(xb, wb), bb)).Backward();
  for (int i = 0; i < xa.numel(); ++i) {
    ASSERT_EQ(xa.grad()[i], xb.grad()[i]) << "x grad " << i;
  }
  for (int i = 0; i < wa.numel(); ++i) {
    ASSERT_EQ(wa.grad()[i], wb.grad()[i]) << "w grad " << i;
  }
  for (int i = 0; i < ba.numel(); ++i) {
    ASSERT_EQ(ba.grad()[i], bb.grad()[i]) << "bias grad " << i;
  }
}

// --- LinearRowBiasRelu ------------------------------------------------------

TEST(LinearRowBiasReluTest, ForwardBitIdenticalToChain) {
  util::Rng rng(57);
  const nn::Tensor x = nn::Tensor::Xavier(13, 29, &rng);
  const nn::Tensor w = nn::Tensor::Xavier(29, 11, &rng);
  const nn::Tensor bias = nn::Tensor::Xavier(1, 11, &rng);
  const nn::Tensor fused = LinearRowBiasRelu(x, w, bias);
  const nn::Tensor chain = Relu(Add(MatMul(x, w), bias));
  ASSERT_EQ(fused.rows(), chain.rows());
  ASSERT_EQ(fused.cols(), chain.cols());
  for (int i = 0; i < fused.numel(); ++i) {
    ASSERT_EQ(fused.value()[i], chain.value()[i]) << "index " << i;
  }
}

TEST(LinearRowBiasReluTest, BackwardMatchesChain) {
  util::Rng rng(58);
  const nn::Tensor x0 = nn::Tensor::Xavier(7, 19, &rng);
  const nn::Tensor w0 = nn::Tensor::Xavier(19, 5, &rng);
  const nn::Tensor b0 = nn::Tensor::Xavier(1, 5, &rng);
  const nn::Tensor xa = nn::Tensor::FromVector(7, 19, x0.value(), true);
  const nn::Tensor wa = nn::Tensor::FromVector(19, 5, w0.value(), true);
  const nn::Tensor ba = nn::Tensor::FromVector(1, 5, b0.value(), true);
  const nn::Tensor xb = nn::Tensor::FromVector(7, 19, x0.value(), true);
  const nn::Tensor wb = nn::Tensor::FromVector(19, 5, w0.value(), true);
  const nn::Tensor bb = nn::Tensor::FromVector(1, 5, b0.value(), true);
  // Square the output so the upstream gradient is non-constant and signed:
  // the ReLU gate then has to zero real values, not just ones.
  Sum(Square(LinearRowBiasRelu(xa, wa, ba))).Backward();
  Sum(Square(Relu(LinearRowBias(xb, wb, bb)))).Backward();
  for (int i = 0; i < xa.numel(); ++i) {
    ASSERT_EQ(xa.grad()[i], xb.grad()[i]) << "x grad " << i;
  }
  for (int i = 0; i < wa.numel(); ++i) {
    ASSERT_EQ(wa.grad()[i], wb.grad()[i]) << "w grad " << i;
  }
  for (int i = 0; i < ba.numel(); ++i) {
    ASSERT_EQ(ba.grad()[i], bb.grad()[i]) << "bias grad " << i;
  }
}

// The fused node must also agree across dispatch levels (its backward
// routes through bias_act_backward + the matmul backward kernels).
TEST(LinearRowBiasReluTest, BitIdenticalScalarVsVector) {
  SimdLevelGuard guard;
  util::Rng rng(59);
  const nn::Tensor x0 = nn::Tensor::Xavier(17, 23, &rng);
  const nn::Tensor w0 = nn::Tensor::Xavier(23, 9, &rng);
  const nn::Tensor b0 = nn::Tensor::Xavier(1, 9, &rng);
  std::vector<float> value_by_level[2];
  std::vector<float> xg_by_level[2];
  const Level levels[2] = {nn::simd::HardwareLevel(), Level::kScalar};
  for (int li = 0; li < 2; ++li) {
    nn::simd::ForceLevel(levels[li]);
    const nn::Tensor x = nn::Tensor::FromVector(17, 23, x0.value(), true);
    const nn::Tensor w = nn::Tensor::FromVector(23, 9, w0.value(), true);
    const nn::Tensor b = nn::Tensor::FromVector(1, 9, b0.value(), true);
    const nn::Tensor out = LinearRowBiasRelu(x, w, b);
    Sum(out).Backward();
    value_by_level[li] = out.value();
    xg_by_level[li] = x.grad();
  }
  for (size_t i = 0; i < value_by_level[0].size(); ++i) {
    ASSERT_EQ(value_by_level[0][i], value_by_level[1][i]) << "value " << i;
  }
  for (size_t i = 0; i < xg_by_level[0].size(); ++i) {
    ASSERT_EQ(xg_by_level[0][i], xg_by_level[1][i]) << "x grad " << i;
  }
}

// --- Fused Adam update ------------------------------------------------------

// adam_step is elementwise with correctly rounded ops only, so every level
// must match the scalar reference bit for bit — parameter values, and both
// moment buffers, across several update steps and both decay modes.
TEST(SimdParityTest, AdamStepBitExact) {
  const Kernels* vec = VectorTable();
  const Kernels* scalar = nn::simd::TableFor(Level::kScalar);
  util::Rng rng(60);
  const float lr = 2e-3f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  for (const int n : {1, 5, 17, 129, 1000}) {
    for (const float weight_decay : {0.0f, 0.01f}) {
      std::vector<float> value_s = RandomVec(n, &rng);
      std::vector<float> m_s = RandomVec(n, &rng, 0.1f);
      std::vector<float> v_s(n);
      for (int i = 0; i < n; ++i) v_s[i] = rng.Uniform() * 0.01f;
      std::vector<float> value_v = value_s, m_v = m_s, v_v = v_s;
      for (int step = 1; step <= 3; ++step) {
        const std::vector<float> grad = RandomVec(n, &rng);
        const float bias1 = 1.0f - std::pow(beta1, static_cast<float>(step));
        const float bias2 = 1.0f - std::pow(beta2, static_cast<float>(step));
        scalar->adam_step(value_s.data(), grad.data(), m_s.data(), v_s.data(),
                          n, lr, beta1, beta2, eps, bias1, bias2,
                          weight_decay);
        vec->adam_step(value_v.data(), grad.data(), m_v.data(), v_v.data(), n,
                       lr, beta1, beta2, eps, bias1, bias2, weight_decay);
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(value_s[i], value_v[i]) << "value " << i;
          ASSERT_EQ(m_s[i], m_v[i]) << "m " << i;
          ASSERT_EQ(v_s[i], v_v[i]) << "v " << i;
        }
      }
    }
  }
}

// --- BatchLayout SoA --------------------------------------------------------

TEST(BatchLayoutTest, PositionsColumnMatchesLengths) {
  const nn::BatchLayout layout = nn::BatchLayout::FromLengthsChecked({3, 1, 4}).value();
  EXPECT_EQ(layout.total_rows, 8);
  const std::vector<int> expected = {0, 1, 2, 0, 0, 1, 2, 3};
  EXPECT_EQ(layout.positions, expected);
  EXPECT_EQ(layout.offsets, (std::vector<int>{0, 3, 4}));
}

// --- Quantization primitives ------------------------------------------------

TEST(QuantTest, QuantizeValueRoundsAndSaturates) {
  EXPECT_EQ(nn::QuantizeValue(0.0f, 1.0f), 0);
  EXPECT_EQ(nn::QuantizeValue(1.4f, 1.0f), 1);
  EXPECT_EQ(nn::QuantizeValue(1.5f, 1.0f), 2);   // ties away from zero
  EXPECT_EQ(nn::QuantizeValue(-1.5f, 1.0f), -2);
  EXPECT_EQ(nn::QuantizeValue(1000.0f, 1.0f), 127);
  EXPECT_EQ(nn::QuantizeValue(-1000.0f, 1.0f), -127);  // symmetric: no -128
}

TEST(QuantTest, RoundTripErrorBoundedByHalfScale) {
  util::Rng rng(51);
  const std::vector<float> x = RandomVec(1000, &rng, 2.0f);
  float absmax = 0;
  for (const float v : x) absmax = std::max(absmax, std::fabs(v));
  const float scale = absmax / 127.0f;
  std::vector<int8_t> q(x.size());
  nn::QuantizeBuffer(x.data(), x.size(), scale, q.data());
  for (size_t i = 0; i < x.size(); ++i) {
    const float dequant = static_cast<float>(q[i]) * scale;
    EXPECT_LE(std::fabs(dequant - x[i]), 0.5f * scale + 1e-6f) << "index " << i;
  }
}

TEST(QuantTest, CalibratorTracksAbsmax) {
  nn::QuantCalibrator cal;
  EXPECT_EQ(cal.absmax(), 0.0f);
  EXPECT_GE(cal.scale(), nn::kMinQuantScale);  // degenerate: floor, not 0
  const float chunk1[] = {0.5f, -2.0f, 1.0f};
  const float chunk2[] = {-0.25f, 1.5f};
  cal.Observe(chunk1, 3);
  cal.Observe(chunk2, 2);
  EXPECT_FLOAT_EQ(cal.absmax(), 2.0f);
  EXPECT_FLOAT_EQ(cal.scale(), 2.0f / 127.0f);
}

TEST(QuantTest, QuantizedLinearApproximatesFp32) {
  util::Rng rng(52);
  const int m = 9, in = 48, out = 33;
  const nn::Tensor w = nn::Tensor::Xavier(in, out, &rng);
  const nn::Tensor bias = nn::Tensor::Xavier(1, out, &rng);
  const std::vector<float> x = RandomVec(static_cast<size_t>(m) * in, &rng);
  nn::QuantCalibrator cal;
  cal.Observe(x.data(), x.size());
  const nn::QuantizedLinear q = nn::QuantizedLinear::FromLinear(
      w, bias, cal.scale());
  EXPECT_EQ(q.in_features(), in);
  EXPECT_EQ(q.out_features(), out);
  std::vector<float> y(static_cast<size_t>(m) * out);
  std::vector<int8_t> qx;
  std::vector<float> rs;
  q.Forward(x.data(), m, y.data(), &qx, &rs);
  // fp32 reference.
  const std::vector<float>& wv = w.value();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < out; ++j) {
      float ref = bias.value()[j];
      for (int p = 0; p < in; ++p) {
        ref += x[static_cast<size_t>(i) * in + p] *
               wv[static_cast<size_t>(p) * out + j];
      }
      // Error budget: per-term quantization noise accumulated over `in`
      // products; loose analytic bound, tight in practice.
      const float tol = 0.02f + 0.02f * std::fabs(ref);
      EXPECT_NEAR(y[static_cast<size_t>(i) * out + j], ref, tol)
          << "(" << i << ", " << j << ")";
    }
  }
}

// --- Quantized plan encoder -------------------------------------------------

encoder::StructureEncoderConfig SmallConfig(int output_dim = 0) {
  encoder::StructureEncoderConfig config;
  config.level1_dim = 12;
  config.level2_dim = 6;
  config.level3_dim = 6;
  config.num_heads = 2;
  config.ff_dim = 32;
  config.num_layers = 2;
  config.max_len = 128;
  config.dropout = 0.0f;
  config.output_dim = output_dim;
  return config;
}

std::vector<std::unique_ptr<plan::PlanNode>> SamplePlans(int count,
                                                         uint64_t seed,
                                                         int max_nodes = 24) {
  data::CorpusOptions options;
  options.min_nodes = 4;
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

double CosineDistance(const std::vector<float>& a, const std::vector<float>& b) {
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0 || nb == 0) return 1.0;
  return 1.0 - dot / (std::sqrt(na) * std::sqrt(nb));
}

// Accuracy-delta gate 1: quantization may not move any plan's embedding
// far from its fp32 twin (max cosine distance over a fresh evaluation set).
TEST(QuantizedEncoderTest, CosineDistanceToFp32WithinGate) {
  util::Rng rng(99);
  encoder::TransformerPlanEncoder fp32(SmallConfig(), &rng);
  fp32.SetTraining(false);
  const auto cal_plans = SamplePlans(24, 7001);
  const auto eval_plans = SamplePlans(32, 7002);
  const auto quantized = fp32.Quantize(Pointers(cal_plans));
  ASSERT_EQ(quantized->output_dim(), fp32.output_dim());
  EXPECT_EQ(quantized->num_quantized_sites(), 2 * 6);  // no projection
  const auto ptrs = Pointers(eval_plans);
  const auto fp32_out = fp32.EncodeBatch(ptrs, nullptr);
  const auto int8_out = quantized->EncodeBatch(ptrs, nullptr);
  ASSERT_EQ(fp32_out.size(), int8_out.size());
  double max_dist = 0;
  for (size_t i = 0; i < fp32_out.size(); ++i) {
    max_dist = std::max(
        max_dist, CosineDistance(fp32_out[i].value(), int8_out[i].value()));
  }
  // Gate: measured max ~1e-4 on this model; 0.01 leaves an order of
  // magnitude of headroom while still catching a broken scale or layout.
  EXPECT_LT(max_dist, 0.01);
}

// Accuracy-delta gate 2 (downstream proxy): nearest-neighbor structure of
// the embedding space survives quantization — for most plans, the fp32
// nearest neighbor stays the int8 nearest neighbor.
TEST(QuantizedEncoderTest, NearestNeighborAgreementWithinGate) {
  util::Rng rng(100);
  encoder::TransformerPlanEncoder fp32(SmallConfig(), &rng);
  fp32.SetTraining(false);
  const auto cal_plans = SamplePlans(24, 7003);
  const auto eval_plans = SamplePlans(40, 7004);
  const auto quantized = fp32.Quantize(Pointers(cal_plans));
  const auto ptrs = Pointers(eval_plans);
  const auto fp32_out = fp32.EncodeBatch(ptrs, nullptr);
  const auto int8_out = quantized->EncodeBatch(ptrs, nullptr);
  auto nearest = [](const std::vector<nn::Tensor>& embs, size_t i) {
    size_t best = i == 0 ? 1 : 0;
    double best_dist = 2.0;
    for (size_t j = 0; j < embs.size(); ++j) {
      if (j == i) continue;
      const double d = CosineDistance(embs[i].value(), embs[j].value());
      if (d < best_dist) {
        best_dist = d;
        best = j;
      }
    }
    return best;
  };
  int agree = 0;
  for (size_t i = 0; i < fp32_out.size(); ++i) {
    if (nearest(fp32_out, i) == nearest(int8_out, i)) ++agree;
  }
  // Gate: at least 80% top-1 neighbor agreement (measured: ~100%).
  EXPECT_GE(agree, static_cast<int>(0.8 * fp32_out.size()));
}

// The int8 engine is exact integer arithmetic per GEMM and row-independent
// everywhere else: a plan's embedding is the same bits alone or batched.
TEST(QuantizedEncoderTest, BatchedBitIdenticalToSingle) {
  util::Rng rng(101);
  encoder::TransformerPlanEncoder fp32(SmallConfig(16), &rng);  // + projection
  fp32.SetTraining(false);
  const auto cal_plans = SamplePlans(16, 7005);
  const auto eval_plans = SamplePlans(9, 7006);
  const auto quantized = fp32.Quantize(Pointers(cal_plans));
  EXPECT_EQ(quantized->num_quantized_sites(), 2 * 6 + 1);
  EXPECT_EQ(quantized->output_dim(), 16);
  const auto ptrs = Pointers(eval_plans);
  const auto batched = quantized->EncodeBatch(ptrs, nullptr);
  for (size_t i = 0; i < ptrs.size(); ++i) {
    const nn::Tensor single = quantized->Encode(*ptrs[i], nullptr);
    ASSERT_EQ(single.numel(), batched[i].numel());
    for (int c = 0; c < single.numel(); ++c) {
      ASSERT_EQ(single.value()[c], batched[i].value()[c])
          << "plan " << i << " col " << c;
    }
  }
  // And deterministic across repeated calls.
  const auto again = quantized->EncodeBatch(ptrs, nullptr);
  for (size_t i = 0; i < ptrs.size(); ++i) {
    for (int c = 0; c < batched[i].numel(); ++c) {
      ASSERT_EQ(batched[i].value()[c], again[i].value()[c]);
    }
  }
}

// The quantized encoder slots into EmbeddingService unchanged (opt-in
// quantized serving = construct the service with the quantized encoder).
TEST(QuantizedEncoderTest, ServesThroughEmbeddingService) {
  util::Rng rng(102);
  encoder::TransformerPlanEncoder fp32(SmallConfig(), &rng);
  fp32.SetTraining(false);
  const auto cal_plans = SamplePlans(16, 7007);
  const auto eval_plans = SamplePlans(12, 7008);
  const auto quantized = fp32.Quantize(Pointers(cal_plans));
  serve::EmbeddingService service(quantized.get());
  const auto ptrs = Pointers(eval_plans);
  const auto served = service.EncodeAll(ptrs);
  const auto direct = quantized->EncodeBatch(ptrs, nullptr);
  ASSERT_EQ(served.size(), direct.size());
  for (size_t i = 0; i < served.size(); ++i) {
    for (int c = 0; c < served[i].numel(); ++c) {
      ASSERT_EQ(served[i].value()[c], direct[i].value()[c]);
    }
  }
  const serve::ServiceStats stats = service.GetStats();
  EXPECT_STREQ(stats.simd_level,
               nn::simd::LevelName(nn::simd::ActiveLevel()));
}

// Calibrated input scales are positive, finite, and cover every site.
TEST(QuantizedEncoderTest, CalibratedScalesAreSane) {
  util::Rng rng(103);
  encoder::TransformerPlanEncoder fp32(SmallConfig(), &rng);
  fp32.SetTraining(false);
  const auto cal_plans = SamplePlans(16, 7009);
  const auto quantized = fp32.Quantize(Pointers(cal_plans));
  const std::vector<float> scales = quantized->input_scales();
  ASSERT_EQ(static_cast<int>(scales.size()),
            quantized->num_quantized_sites());
  for (const float s : scales) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, nn::kMinQuantScale);
    EXPECT_LT(s, 100.0f);
  }
}

}  // namespace
}  // namespace qpe
