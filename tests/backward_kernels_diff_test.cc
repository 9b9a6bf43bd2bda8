// Differential test of the training-backward kernels against verbatim
// copies of the kernels they replaced (legacy_backward_kernels.cc): at the
// scalar level and at the hardware's vector level, the current
// matmul_backward_a, matmul_backward_b and attention_backward_packed must
// produce exactly the legacy bits. The attention backward reads the
// probabilities its forward kept; it is given the probabilities the legacy
// kernel recomputes, and those are checked to be the forward's own.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "legacy_backward_kernels.h"
#include "nn/simd.h"
#include "util/rng.h"

namespace qpe {
namespace {

using nn::simd::Kernels;
using nn::simd::Level;
namespace legacy = nn::simd::legacy;

std::vector<float> RandomVec(size_t n, util::Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

uint32_t Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// Bitwise equality, NaN payloads included.
void ExpectSameBits(const std::vector<float>& want,
                    const std::vector<float>& got, const char* what,
                    const char* level) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(Bits(want[i]), Bits(got[i]))
        << what << " at level " << level << " index " << i << ": " << want[i]
        << " vs " << got[i];
  }
}

// The levels compiled into this binary and supported by this CPU: scalar
// always, plus the hardware's vector level.
std::vector<Level> Levels() {
  std::vector<Level> levels = {Level::kScalar};
  const Level hw = nn::simd::HardwareLevel();
  if (hw != Level::kScalar && nn::simd::TableFor(hw) != nullptr &&
      legacy::LegacyFor(hw) != nullptr) {
    levels.push_back(hw);
  }
  return levels;
}

// Row shards [0, a), [a, b), [b, n) — the ParallelFor entry point.
std::vector<std::pair<int, int>> Shards(int n) {
  const int a = n / 3;
  const int b = (2 * n) / 3;
  return {{0, a}, {a, b}, {b, n}};
}

TEST(BackwardKernelsDiffTest, MatMulBackwardAMatchesLegacy) {
  util::Rng rng(161);
  const int shapes[][3] = {{1, 1, 1},    {3, 7, 5},    {56, 48, 48},
                           {56, 96, 48}, {56, 48, 96}, {17, 49, 33},
                           {9, 130, 17}, {4, 8, 300},  {129, 200, 3},
                           {5, 13, 64}};
  for (const Level level : Levels()) {
    const Kernels* now = nn::simd::TableFor(level);
    const legacy::BackwardKernels* old = legacy::LegacyFor(level);
    for (const auto& s : shapes) {
      const int m = s[0], k = s[1], n = s[2];
      const std::vector<float> og =
          RandomVec(static_cast<size_t>(m) * n, &rng);
      const std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
      std::vector<float> ag_old = RandomVec(static_cast<size_t>(m) * k, &rng);
      std::vector<float> ag_new = ag_old;
      for (const auto& [i0, i1] : Shards(m)) {
        old->matmul_backward_a(og.data(), b.data(), ag_old.data(), i0, i1, k,
                               n);
        now->matmul_backward_a(og.data(), b.data(), ag_new.data(), i0, i1, k,
                               n);
      }
      ExpectSameBits(ag_old, ag_new, "ag", nn::simd::LevelName(level));
    }
  }
}

TEST(BackwardKernelsDiffTest, MatMulBackwardBMatchesLegacy) {
  util::Rng rng(162);
  const int shapes[][3] = {{1, 1, 1},    {3, 7, 5},    {56, 48, 48},
                           {56, 96, 48}, {56, 48, 96}, {56, 48, 144},
                           {17, 49, 33}, {9, 130, 17}, {4, 8, 300},
                           {129, 20, 3}, {2, 5, 63}};
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Level level : Levels()) {
    const Kernels* now = nn::simd::TableFor(level);
    const legacy::BackwardKernels* old = legacy::LegacyFor(level);
    for (const auto& s : shapes) {
      const int m = s[0], k = s[1], n = s[2];
      for (const bool relu_sparse : {false, true}) {
        std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
        // Zeros sprinkled in (signed zeros too), or about half of A zero
        // like a ReLU output.
        for (size_t i = 0; i < a.size(); ++i) {
          if (relu_sparse ? a[i] < 0.0f : i % 3 == 0) {
            a[i] = (i % 2 == 0) ? 0.0f : -0.0f;
          }
        }
        std::vector<float> og = RandomVec(static_cast<size_t>(m) * n, &rng);
        // Rows whose A row is all zero may carry non-finite upstream
        // gradients: the skip keeps them out of dB at every level.
        for (int i = 1; i < m; i += 4) {
          for (int p = 0; p < k; ++p) a[static_cast<size_t>(i) * k + p] = 0.0f;
          for (int j = 0; j < n; ++j) {
            og[static_cast<size_t>(i) * n + j] =
                (j % 3 == 0) ? inf : (j % 3 == 1 ? -inf : nan);
          }
        }
        std::vector<float> bg_old =
            RandomVec(static_cast<size_t>(k) * n, &rng);
        std::vector<float> bg_new = bg_old;
        for (const auto& [p0, p1] : Shards(k)) {
          old->matmul_backward_b(a.data(), og.data(), bg_old.data(), p0, p1,
                                 m, k, n);
          now->matmul_backward_b(a.data(), og.data(), bg_new.data(), p0, p1,
                                 m, k, n);
        }
        ExpectSameBits(bg_old, bg_new, "bg", nn::simd::LevelName(level));
        for (const float x : bg_new) ASSERT_TRUE(std::isfinite(x));
      }
    }
  }
}

TEST(BackwardKernelsDiffTest, AttentionBackwardMatchesLegacy) {
  util::Rng rng(163);
  struct Case {
    std::vector<int> lengths;
    int num_heads;
    int head_dim;
  };
  std::vector<Case> cases = {
      {{1}, 1, 7},
      {{27, 29}, 4, 12},  // the training shape: one pair of plans
      {{3, 17, 1, 8}, 4, 12},
      {{129}, 2, 24},
      {{5, 64, 2}, 3, 7},
      {{9, 16, 33}, 2, 24},
  };
  // Every length 1..129 once, spread over ragged batches.
  for (int first = 1; first <= 129; first += 16) {
    std::vector<int> lengths;
    for (int len = first; len < first + 16 && len <= 129; len += 3) {
      lengths.push_back(len);
    }
    const int head_dims[] = {7, 12, 24};
    cases.push_back({lengths, 2, head_dims[(first / 16) % 3]});
  }
  for (int first = 2; first <= 129; first += 48) {
    std::vector<int> lengths;
    for (int len = first; len < first + 48 && len <= 129; len += 3) {
      lengths.push_back(len);
    }
    cases.push_back({lengths, 4, 12});
  }
  for (const Level level : Levels()) {
    const Kernels* now = nn::simd::TableFor(level);
    const legacy::BackwardKernels* old = legacy::LegacyFor(level);
    const char* name = nn::simd::LevelName(level);
    for (const Case& c : cases) {
      const int dim = c.num_heads * c.head_dim;
      const int num_seqs = static_cast<int>(c.lengths.size());
      std::vector<int> offsets;
      int total = 0;
      size_t kept = 0;
      for (const int len : c.lengths) {
        offsets.push_back(total);
        total += len;
        kept += static_cast<size_t>(len) * len * c.num_heads;
      }
      const float scale = 1.0f / std::sqrt(static_cast<float>(c.head_dim));
      const size_t size = static_cast<size_t>(total) * dim;
      // Scores spread wide enough that some probabilities underflow.
      std::vector<float> q = RandomVec(size, &rng);
      for (float& x : q) x *= 4.0f;
      const std::vector<float> k = RandomVec(size, &rng);
      const std::vector<float> v = RandomVec(size, &rng);
      const std::vector<float> og = RandomVec(size, &rng);

      // The legacy recompute's probabilities are the forward's own.
      std::vector<float> probs(kept), probs_fwd(kept);
      old->attention_probs(q.data(), k.data(), probs.data(), offsets.data(),
                           c.lengths.data(), num_seqs, c.num_heads, dim,
                           scale);
      std::vector<float> out(size);
      now->attention_forward_packed(q.data(), k.data(), v.data(), out.data(),
                                    offsets.data(), c.lengths.data(),
                                    num_seqs, c.num_heads, dim, scale,
                                    probs_fwd.data());
      ExpectSameBits(probs, probs_fwd, "probs", name);

      std::vector<float> qg_old = RandomVec(size, &rng), qg_new = qg_old;
      std::vector<float> kg_old = RandomVec(size, &rng), kg_new = kg_old;
      std::vector<float> vg_old = RandomVec(size, &rng), vg_new = vg_old;
      old->attention_backward_packed(
          q.data(), k.data(), v.data(), og.data(), qg_old.data(),
          kg_old.data(), vg_old.data(), offsets.data(), c.lengths.data(),
          num_seqs, c.num_heads, dim, scale);
      now->attention_backward_packed(
          q.data(), k.data(), v.data(), og.data(), probs.data(),
          qg_new.data(), kg_new.data(), vg_new.data(), offsets.data(),
          c.lengths.data(), num_seqs, c.num_heads, dim, scale);
      ExpectSameBits(qg_old, qg_new, "qg", name);
      ExpectSameBits(kg_old, kg_new, "kg", name);
      ExpectSameBits(vg_old, vg_new, "vg", name);

      // Any subset of the gradients may be requested.
      std::vector<float> vg_only_old = RandomVec(size, &rng);
      std::vector<float> vg_only_new = vg_only_old;
      old->attention_backward_packed(
          q.data(), k.data(), v.data(), og.data(), nullptr, nullptr,
          vg_only_old.data(), offsets.data(), c.lengths.data(), num_seqs,
          c.num_heads, dim, scale);
      now->attention_backward_packed(
          q.data(), k.data(), v.data(), og.data(), probs.data(), nullptr,
          nullptr, vg_only_new.data(), offsets.data(), c.lengths.data(),
          num_seqs, c.num_heads, dim, scale);
      ExpectSameBits(vg_only_old, vg_only_new, "vg only", name);
    }
  }
}

}  // namespace
}  // namespace qpe
