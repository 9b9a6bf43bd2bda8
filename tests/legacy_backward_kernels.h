#ifndef QPE_TESTS_LEGACY_BACKWARD_KERNELS_H_
#define QPE_TESTS_LEGACY_BACKWARD_KERNELS_H_

#include "nn/simd.h"

// The three training-backward kernels as nn/simd_kernels_inl.h had them
// before the attention backward began reading the forward's probabilities
// and the weight- and input-gradient GEMMs became register-tiled, kept
// verbatim as the test oracle for the differential test
// (backward_kernels_diff_test.cc). The attention backward recomputes every
// head's softmax probabilities; matmul_backward_a runs one 4-vector tile
// plus single-vector tails, matmul_backward_b streams rank-1 row updates
// through memory.
namespace qpe::nn::simd::legacy {

struct BackwardKernels {
  void (*matmul_backward_a)(const float* og, const float* bv, float* ag,
                            int i0, int i1, int k, int n);
  void (*matmul_backward_b)(const float* av, const float* og, float* bg,
                            int p0, int p1, int m, int k, int n);
  void (*attention_backward_packed)(const float* qv, const float* kv,
                                    const float* vv, const float* og,
                                    float* qg, float* kg, float* vg,
                                    const int* offsets, const int* lengths,
                                    int num_seqs, int num_heads, int dim,
                                    float scale);
  // The probabilities the legacy attention backward recomputes, written
  // per (sequence, head) block in the [seq][head][len][len] layout the
  // current kernel reads.
  void (*attention_probs)(const float* qv, const float* kv, float* probs,
                          const int* offsets, const int* lengths,
                          int num_seqs, int num_heads, int dim, float scale);
};

// Legacy kernels instantiated with the vector-ops policy of `level`; null
// when that level is not compiled into this binary.
const BackwardKernels* LegacyFor(Level level);

}  // namespace qpe::nn::simd::legacy

#endif  // QPE_TESTS_LEGACY_BACKWARD_KERNELS_H_
