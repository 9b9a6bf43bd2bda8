#include "nn/tensor.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/arena.h"
#include "nn/simd.h"
#include "nn/simd_kernels_inl.h"
#include "util/thread_pool.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace qpe::nn {

namespace {

constexpr float kLogEps = 1e-12f;

#if defined(__GLIBC__)
// Training loops allocate/free many medium-sized buffers (a 400x400
// attention matrix is ~640 KB); glibc's default M_MMAP_THRESHOLD of 128 KB
// would serve each from a fresh mmap, paying page faults on every forward
// pass. Keep them on the recycled heap instead. Lives here so it links into
// every binary that uses tensors.
struct MallocTuning {
  MallocTuning() {
    mallopt(M_MMAP_THRESHOLD, 256 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
  }
};
const MallocTuning kMallocTuning;
#endif  // __GLIBC__

thread_local bool tl_no_grad = false;
thread_local const std::unordered_map<Tensor::Impl*, float*>* tl_grad_redirect =
    nullptr;

// Single creation point for tensor storage. Tensors that can participate
// in the long-lived parameter set (requires_grad=true at creation) always
// come from the plain heap; everything else draws from the thread's
// TensorArena when an ArenaScope is active, so per-step graph storage is
// recycled instead of freed. zero_fill=false is only legal when the caller
// overwrites every element before the value is read.
Tensor NewTensor(int rows, int cols, bool requires_grad, bool zero_fill) {
  if (!requires_grad) {
    if (TensorArena* arena = TensorArena::Current()) {
      return Tensor(arena->Acquire(rows, cols, zero_fill));
    }
  }
  auto impl = std::make_shared<Tensor::Impl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->requires_grad = requires_grad;
  // Fresh vectors value-initialize, so the heap path is always zeroed.
  // grad stays empty until EnsureGrad(): most tensors (eval-mode
  // activations, forward intermediates whose graph is discarded) never
  // receive a gradient.
  impl->value.resize(static_cast<size_t>(rows) * cols);
  return Tensor(std::move(impl));
}

}  // namespace

// Where a backward function accumulates a parent's gradient. Normally the
// parent's own (lazily allocated) grad buffer; under an active
// GradientCapture the shared targets are redirected to per-thread shadow
// buffers so concurrent Backward() calls on graphs sharing parameter
// leaves never write the same memory. Exported (tensor.h) because the
// packed-batch training backward accumulates parameter gradients outside
// this translation unit and must honor the same redirect.
float* GradPtr(Tensor::Impl* p) {
  if (tl_grad_redirect) {
    auto it = tl_grad_redirect->find(p);
    if (it != tl_grad_redirect->end()) return it->second;
  }
  p->EnsureGrad();
  return p->grad.data();
}

// ---------------------------------------------------------------------------
// Construction and accessors
// ---------------------------------------------------------------------------

Tensor Tensor::Zeros(int rows, int cols, bool requires_grad) {
  return NewTensor(rows, cols, requires_grad, /*zero_fill=*/true);
}

Tensor Tensor::Full(int rows, int cols, float value, bool requires_grad) {
  Tensor t = NewTensor(rows, cols, requires_grad, /*zero_fill=*/false);
  std::fill(t.value().begin(), t.value().end(), value);
  return t;
}

Tensor Tensor::FromVector(int rows, int cols, const std::vector<float>& data,
                          bool requires_grad) {
  assert(static_cast<int>(data.size()) == rows * cols);
  Tensor t = NewTensor(rows, cols, requires_grad, /*zero_fill=*/false);
  std::copy(data.begin(), data.end(), t.value().begin());
  return t;
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return Full(1, 1, value, requires_grad);
}

Tensor Tensor::Xavier(int rows, int cols, util::Rng* rng) {
  Tensor t = Zeros(rows, cols, /*requires_grad=*/true);
  const float bound = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (float& v : t.value()) {
    v = static_cast<float>(rng->Uniform(-bound, bound));
  }
  return t;
}

Tensor Tensor::Gaussian(int rows, int cols, float stddev, util::Rng* rng) {
  Tensor t = Zeros(rows, cols, /*requires_grad=*/true);
  for (float& v : t.value()) {
    v = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

int Tensor::rows() const { return impl_ ? impl_->rows : 0; }
int Tensor::cols() const { return impl_ ? impl_->cols : 0; }
bool Tensor::requires_grad() const {
  return impl_ != nullptr && impl_->requires_grad;
}

std::vector<float>& Tensor::value() { return impl_->value; }
const std::vector<float>& Tensor::value() const { return impl_->value; }
std::vector<float>& Tensor::grad() {
  impl_->EnsureGrad();
  return impl_->grad;
}
const std::vector<float>& Tensor::grad() const {
  impl_->EnsureGrad();
  return impl_->grad;
}

float Tensor::at(int r, int c) const {
  return impl_->value[static_cast<size_t>(r) * impl_->cols + c];
}
void Tensor::set(int r, int c, float v) {
  impl_->value[static_cast<size_t>(r) * impl_->cols + c] = v;
}

void Tensor::ZeroGrad() const {
  if (impl_ && !impl_->grad.empty()) {
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }
}

Tensor Tensor::Detach() const {
  if (!impl_) return Tensor();
  Tensor t = NewTensor(rows(), cols(), /*requires_grad=*/false,
                       /*zero_fill=*/false);
  std::copy(impl_->value.begin(), impl_->value.end(), t.value().begin());
  return t;
}

namespace {

// Shared MakeResult body over any parent range. Parents are copied into the
// result's existing `parents` vector (assign reuses recycled capacity)
// instead of moving a freshly allocated vector in.
template <typename ParentRange>
Tensor MakeResultImpl(int rows, int cols, const ParentRange& parents,
                      Tensor::Fill fill) {
  bool any_grad = false;
  if (!tl_no_grad) {
    for (const auto& p : parents) any_grad = any_grad || p->requires_grad;
  }
  Tensor t = NewTensor(rows, cols, /*requires_grad=*/false,
                       /*zero_fill=*/fill == Tensor::Fill::kZero);
  t.impl_->requires_grad = any_grad;
  // Only keep graph edges when a gradient can flow.
  if (any_grad) t.impl_->parents.assign(parents.begin(), parents.end());
  return t;
}

}  // namespace

Tensor Tensor::MakeResult(int rows, int cols,
                          std::initializer_list<std::shared_ptr<Impl>> parents,
                          Fill fill) {
  return MakeResultImpl(rows, cols, parents, fill);
}

Tensor Tensor::MakeResult(int rows, int cols,
                          const std::vector<std::shared_ptr<Impl>>& parents,
                          Fill fill) {
  return MakeResultImpl(rows, cols, parents, fill);
}

// ---------------------------------------------------------------------------
// Backward
// ---------------------------------------------------------------------------

void Tensor::Backward() const {
  assert(impl_ && impl_->rows == 1 && impl_->cols == 1 &&
         "Backward() requires a scalar result");
  // Iterative topological sort (graphs can be thousands of nodes deep for
  // LSTMs, so recursion is unsafe). The scratch is thread_local and reused
  // across calls: training loops run Backward() every step and the vectors
  // keep their high-water capacity.
  thread_local std::vector<Impl*> topo;
  thread_local std::vector<std::pair<Impl*, size_t>> stack;
  topo.clear();
  stack.clear();

  stack.emplace_back(impl_.get(), 0);
  impl_->visited = true;
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < node->parents.size()) {
      Impl* parent = node->parents[next++].get();
      // Leaves (no parents, no backward_fn — parameters and inputs) are
      // never enqueued: they contribute nothing to the sweep, and skipping
      // them means the traversal never touches `visited` on impls shared
      // between graphs running Backward() concurrently on other threads.
      if (!parent->visited &&
          !(parent->parents.empty() && !parent->backward_fn)) {
        parent->visited = true;
        stack.emplace_back(parent, 0);
      }
    } else {
      topo.push_back(node);
      stack.pop_back();
    }
  }
  for (Impl* node : topo) {
    node->visited = false;  // reset scratch
    // Backward functions read their own node's grad buffer; with lazy
    // allocation it may not exist yet (e.g. a node whose consumers all
    // skipped zero gradients).
    node->EnsureGrad();
  }

  impl_->grad[0] = 1.0f;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    if ((*it)->backward_fn) (*it)->backward_fn();
  }
}

// ---------------------------------------------------------------------------
// NoGradGuard / GradientCapture
// ---------------------------------------------------------------------------

NoGradGuard::NoGradGuard() : previous_(tl_no_grad) { tl_no_grad = true; }
NoGradGuard::~NoGradGuard() { tl_no_grad = previous_; }

bool GradEnabled() { return !tl_no_grad; }

GradientCapture::GradientCapture(const std::vector<Tensor>& targets,
                                 std::vector<std::vector<float>>* buffers) {
  buffers->resize(targets.size());
  map_.reserve(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    Tensor::Impl* impl = targets[i].impl();
    std::vector<float>& buf = (*buffers)[i];
    buf.assign(impl->value.size(), 0.0f);
    map_.emplace(impl, buf.data());
  }
  previous_ = tl_grad_redirect;
  tl_grad_redirect = &map_;
}

GradientCapture::~GradientCapture() { tl_grad_redirect = previous_; }

// ---------------------------------------------------------------------------
// MatMul: blocked forward/backward kernels
// ---------------------------------------------------------------------------

namespace {

// Below this many flops (2*m*k*n) the kernels run inline: pool dispatch
// costs more than the multiply.
constexpr int64_t kMatMulParallelFlops = 1 << 17;

// The blocked MatMul forward micro-kernel lives in the SIMD dispatch table
// (nn/simd.h): out[i0:i1, :] += A[i0:i1, :] * B with the k dimension
// accumulated in ascending order per output element at every SIMD level,
// so results are identical for every thread count and instruction set.
// Tiling constants are kSimdMatMulKC/kSimdMatMulNC in simd_kernels_inl.h.
inline void MatMulForwardRange(const float* av, const float* bv, float* ov,
                               int i0, int i1, int k, int n) {
  simd::K().matmul_forward_range(av, bv, ov, i0, i1, k, n);
}

// dA[i0:i1, :] += dOut[i0:i1, :] * B^T — in the dispatch table since the
// backward kernels joined it; each dA element stays one complete
// ascending-j dot added once, at every level (MatMulBackwardAT).
inline void MatMulBackwardA(const float* og, const float* bv, float* ag,
                            int i0, int i1, int k, int n) {
  simd::K().matmul_backward_a(og, bv, ag, i0, i1, k, n);
}

// dB[p0:p1, :] += (A^T * dOut)[p0:p1, :] as rank-1 row updates with the i
// dimension accumulated in ascending order per output element regardless
// of the p partition (MatMulBackwardBT in the dispatch table).
inline void MatMulBackwardB(const float* av, const float* og, float* bg,
                            int p0, int p1, int m, int k, int n) {
  simd::K().matmul_backward_b(av, og, bg, p0, p1, m, k, n);
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.rows());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out = Tensor::MakeResult(m, n, {a.impl_, b.impl_});
  const float* av = a.impl_->value.data();
  const float* bv = b.impl_->value.data();
  float* ov = out.impl_->value.data();  // pre-zeroed by MakeResult
  const int64_t flops = 2LL * m * k * n;
  if (flops < kMatMulParallelFlops) {
    MatMulForwardRange(av, bv, ov, 0, m, k, n);
  } else {
    util::ParallelFor(m, /*grain=*/1, [&](int64_t i0, int64_t i1) {
      MatMulForwardRange(av, bv, ov, static_cast<int>(i0),
                         static_cast<int>(i1), k, n);
    });
  }
  if (out.requires_grad()) {
    // Backward closures capture parent impls as raw pointers: the result's
    // `parents` vector owns them for the closure's whole lifetime, and the
    // smaller capture fits BackwardFn's inline storage.
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const bi = b.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, bi, oi, m, k, n, flops]() {
      const float* og = oi->grad.data();
      if (ai->requires_grad) {
        float* ag = GradPtr(ai);
        const float* bv = bi->value.data();
        if (flops < kMatMulParallelFlops) {
          MatMulBackwardA(og, bv, ag, 0, m, k, n);
        } else {
          util::ParallelFor(m, /*grain=*/1, [&](int64_t i0, int64_t i1) {
            MatMulBackwardA(og, bv, ag, static_cast<int>(i0),
                            static_cast<int>(i1), k, n);
          });
        }
      }
      if (bi->requires_grad) {
        float* bg = GradPtr(bi);
        const float* av = ai->value.data();
        if (flops < kMatMulParallelFlops) {
          MatMulBackwardB(av, og, bg, 0, k, m, k, n);
        } else {
          util::ParallelFor(k, /*grain=*/1, [&](int64_t p0, int64_t p1) {
            MatMulBackwardB(av, og, bg, static_cast<int>(p0),
                            static_cast<int>(p1), m, k, n);
          });
        }
      }
    };
  }
  return out;
}

Tensor MatMulReference(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.rows());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out = Tensor::MakeResult(m, n, {a.impl_, b.impl_});
  const float* av = a.impl_->value.data();
  const float* bv = b.impl_->value.data();
  float* ov = out.impl_->value.data();
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float aval = av[static_cast<size_t>(i) * k + p];
      if (aval == 0.0f) continue;
      const float* brow = bv + static_cast<size_t>(p) * n;
      float* orow = ov + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) orow[j] += aval * brow[j];
    }
  }
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const bi = b.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, bi, oi, m, k, n]() {
      const float* og = oi->grad.data();
      if (ai->requires_grad) {
        float* ag = GradPtr(ai);
        const float* bv = bi->value.data();
        // dA = dOut * B^T
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            const float g = og[static_cast<size_t>(i) * n + j];
            if (g == 0.0f) continue;
            for (int p = 0; p < k; ++p) {
              ag[static_cast<size_t>(i) * k + p] +=
                  g * bv[static_cast<size_t>(p) * n + j];
            }
          }
        }
      }
      if (bi->requires_grad) {
        float* bg = GradPtr(bi);
        const float* av = ai->value.data();
        // dB = A^T * dOut
        for (int p = 0; p < k; ++p) {
          for (int i = 0; i < m; ++i) {
            const float aval = av[static_cast<size_t>(i) * k + p];
            if (aval == 0.0f) continue;
            const float* orow = og + static_cast<size_t>(i) * n;
            float* brow = bg + static_cast<size_t>(p) * n;
            for (int j = 0; j < n; ++j) brow[j] += aval * orow[j];
          }
        }
      }
    };
  }
  return out;
}

namespace {

// Maps a broadcast operand's (r, c) index for an [m, n] result.
inline size_t BIdx(int r, int c, int brows, int bcols) {
  const int rr = brows == 1 ? 0 : r;
  const int cc = bcols == 1 ? 0 : c;
  return static_cast<size_t>(rr) * bcols + cc;
}

enum class BinOp { kAdd, kSub, kMul };

Tensor Binary(const Tensor& a, const Tensor& b, BinOp op) {
  const int m = a.rows(), n = a.cols();
  const int bm = b.rows(), bn = b.cols();
  assert((bm == m || bm == 1) && (bn == n || bn == 1));
  Tensor out =
      Tensor::MakeResult(m, n, {a.impl_, b.impl_}, Tensor::Fill::kOverwrite);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < n; ++c) {
      const float av = a.impl_->value[static_cast<size_t>(r) * n + c];
      const float bv = b.impl_->value[BIdx(r, c, bm, bn)];
      float v = 0;
      switch (op) {
        case BinOp::kAdd: v = av + bv; break;
        case BinOp::kSub: v = av - bv; break;
        case BinOp::kMul: v = av * bv; break;
      }
      out.impl_->value[static_cast<size_t>(r) * n + c] = v;
    }
  }
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const bi = b.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, bi, oi, m, n, bm, bn, op]() {
      float* ag = ai->requires_grad ? GradPtr(ai) : nullptr;
      float* bg = bi->requires_grad ? GradPtr(bi) : nullptr;
      for (int r = 0; r < m; ++r) {
        for (int c = 0; c < n; ++c) {
          const float g = oi->grad[static_cast<size_t>(r) * n + c];
          if (g == 0.0f) continue;
          const size_t b_idx = BIdx(r, c, bm, bn);
          switch (op) {
            case BinOp::kAdd:
              if (ag) ag[static_cast<size_t>(r) * n + c] += g;
              if (bg) bg[b_idx] += g;
              break;
            case BinOp::kSub:
              if (ag) ag[static_cast<size_t>(r) * n + c] += g;
              if (bg) bg[b_idx] -= g;
              break;
            case BinOp::kMul:
              if (ag) {
                ag[static_cast<size_t>(r) * n + c] += g * bi->value[b_idx];
              }
              if (bg) {
                bg[b_idx] += g * ai->value[static_cast<size_t>(r) * n + c];
              }
              break;
          }
        }
      }
    };
  }
  return out;
}

// Elementwise unary op with derivative expressed from (input, output).
Tensor Unary(const Tensor& a, float (*fwd)(float),
             float (*dfn)(float /*x*/, float /*y*/)) {
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeResult(m, n, {a.impl_}, Tensor::Fill::kOverwrite);
  for (int i = 0; i < m * n; ++i) out.impl_->value[i] = fwd(a.impl_->value[i]);
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, oi, dfn, m, n]() {
      float* ag = GradPtr(ai);
      for (int i = 0; i < m * n; ++i) {
        ag[i] += oi->grad[i] * dfn(ai->value[i], oi->value[i]);
      }
    };
  }
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) { return Binary(a, b, BinOp::kAdd); }
Tensor Sub(const Tensor& a, const Tensor& b) { return Binary(a, b, BinOp::kSub); }
Tensor Mul(const Tensor& a, const Tensor& b) { return Binary(a, b, BinOp::kMul); }

Tensor Scale(const Tensor& a, float s) {
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeResult(m, n, {a.impl_}, Tensor::Fill::kOverwrite);
  for (int i = 0; i < m * n; ++i) out.impl_->value[i] = a.impl_->value[i] * s;
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, oi, s, m, n]() {
      float* ag = GradPtr(ai);
      for (int i = 0; i < m * n; ++i) ag[i] += oi->grad[i] * s;
    };
  }
  return out;
}

Tensor AddScalar(const Tensor& a, float s) {
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeResult(m, n, {a.impl_}, Tensor::Fill::kOverwrite);
  for (int i = 0; i < m * n; ++i) out.impl_->value[i] = a.impl_->value[i] + s;
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, oi, m, n]() {
      float* ag = GradPtr(ai);
      for (int i = 0; i < m * n; ++i) ag[i] += oi->grad[i];
    };
  }
  return out;
}

Tensor Relu(const Tensor& a) {
  return Unary(
      a, [](float x) { return x > 0 ? x : 0.0f; },
      [](float x, float) { return x > 0 ? 1.0f : 0.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return Unary(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return Unary(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Exp(const Tensor& a) {
  return Unary(
      a, [](float x) { return std::exp(std::min(x, 30.0f)); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return Unary(
      a, [](float x) { return std::log(std::max(x, kLogEps)); },
      [](float x, float) { return 1.0f / std::max(x, kLogEps); });
}

Tensor Sqrt(const Tensor& a) {
  return Unary(
      a, [](float x) { return std::sqrt(std::max(x, 0.0f)); },
      [](float, float y) { return y > 0 ? 0.5f / y : 0.0f; });
}

Tensor Square(const Tensor& a) {
  return Unary(
      a, [](float x) { return x * x; }, [](float x, float) { return 2 * x; });
}

Tensor Abs(const Tensor& a) {
  return Unary(
      a, [](float x) { return std::abs(x); },
      [](float x, float) { return x > 0 ? 1.0f : (x < 0 ? -1.0f : 0.0f); });
}

Tensor Transpose(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeResult(n, m, {a.impl_}, Tensor::Fill::kOverwrite);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < n; ++c) {
      out.impl_->value[static_cast<size_t>(c) * m + r] =
          a.impl_->value[static_cast<size_t>(r) * n + c];
    }
  }
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, oi, m, n]() {
      float* ag = GradPtr(ai);
      for (int r = 0; r < m; ++r) {
        for (int c = 0; c < n; ++c) {
          ag[static_cast<size_t>(r) * n + c] +=
              oi->grad[static_cast<size_t>(c) * m + r];
        }
      }
    };
  }
  return out;
}

Tensor Sum(const Tensor& a) {
  Tensor out = Tensor::MakeResult(1, 1, {a.impl_}, Tensor::Fill::kOverwrite);
  float total = 0;
  for (float v : a.impl_->value) total += v;
  out.impl_->value[0] = total;
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, oi]() {
      const float g = oi->grad[0];
      float* ag = GradPtr(ai);
      const size_t count = ai->value.size();
      for (size_t i = 0; i < count; ++i) ag[i] += g;
    };
  }
  return out;
}

Tensor Mean(const Tensor& a) {
  return Scale(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor RowSum(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeResult(m, 1, {a.impl_}, Tensor::Fill::kOverwrite);
  for (int r = 0; r < m; ++r) {
    float total = 0;
    for (int c = 0; c < n; ++c) {
      total += a.impl_->value[static_cast<size_t>(r) * n + c];
    }
    out.impl_->value[r] = total;
  }
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, oi, m, n]() {
      float* ag = GradPtr(ai);
      for (int r = 0; r < m; ++r) {
        const float g = oi->grad[r];
        for (int c = 0; c < n; ++c) {
          ag[static_cast<size_t>(r) * n + c] += g;
        }
      }
    };
  }
  return out;
}

Tensor RowMean(const Tensor& a) {
  return Scale(RowSum(a), 1.0f / static_cast<float>(a.cols()));
}

Tensor SoftmaxRows(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeResult(m, n, {a.impl_}, Tensor::Fill::kOverwrite);
  for (int r = 0; r < m; ++r) {
    const float* row = a.impl_->value.data() + static_cast<size_t>(r) * n;
    float* orow = out.impl_->value.data() + static_cast<size_t>(r) * n;
    float max_v = row[0];
    for (int c = 1; c < n; ++c) max_v = std::max(max_v, row[c]);
    float total = 0;
    for (int c = 0; c < n; ++c) {
      orow[c] = std::exp(row[c] - max_v);
      total += orow[c];
    }
    for (int c = 0; c < n; ++c) orow[c] /= total;
  }
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, oi, m, n]() {
      float* ag = GradPtr(ai);
      for (int r = 0; r < m; ++r) {
        const float* y = oi->value.data() + static_cast<size_t>(r) * n;
        const float* gy = oi->grad.data() + static_cast<size_t>(r) * n;
        float* gx = ag + static_cast<size_t>(r) * n;
        float dot = 0;
        for (int c = 0; c < n; ++c) dot += y[c] * gy[c];
        for (int c = 0; c < n; ++c) gx[c] += y[c] * (gy[c] - dot);
      }
    };
  }
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  assert(!parts.empty());
  const int m = parts[0].rows();
  int total_cols = 0;
  std::vector<std::shared_ptr<Tensor::Impl>> parents;
  for (const Tensor& p : parts) {
    assert(p.rows() == m);
    total_cols += p.cols();
    parents.push_back(p.impl_);
  }
  Tensor out =
      Tensor::MakeResult(m, total_cols, parents, Tensor::Fill::kOverwrite);
  int offset = 0;
  for (const Tensor& p : parts) {
    const int n = p.cols();
    for (int r = 0; r < m; ++r) {
      for (int c = 0; c < n; ++c) {
        out.impl_->value[static_cast<size_t>(r) * total_cols + offset + c] =
            p.impl_->value[static_cast<size_t>(r) * n + c];
      }
    }
    offset += n;
  }
  if (out.requires_grad()) {
    // The parts are exactly the result's parent edges — iterate those
    // instead of capturing a second vector of owners.
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [oi, m, total_cols]() {
      int offset = 0;
      for (const auto& pi : oi->parents) {
        const int n = pi->cols;
        if (pi->requires_grad) {
          float* pg = GradPtr(pi.get());
          for (int r = 0; r < m; ++r) {
            for (int c = 0; c < n; ++c) {
              pg[static_cast<size_t>(r) * n + c] +=
                  oi->grad[static_cast<size_t>(r) * total_cols + offset + c];
            }
          }
        }
        offset += n;
      }
    };
  }
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  assert(!parts.empty());
  const int n = parts[0].cols();
  int total_rows = 0;
  std::vector<std::shared_ptr<Tensor::Impl>> parents;
  for (const Tensor& p : parts) {
    assert(p.cols() == n);
    total_rows += p.rows();
    parents.push_back(p.impl_);
  }
  Tensor out =
      Tensor::MakeResult(total_rows, n, parents, Tensor::Fill::kOverwrite);
  int offset = 0;
  for (const Tensor& p : parts) {
    std::copy(p.impl_->value.begin(), p.impl_->value.end(),
              out.impl_->value.begin() + static_cast<size_t>(offset) * n);
    offset += p.rows();
  }
  if (out.requires_grad()) {
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [oi, n]() {
      int offset = 0;
      for (const auto& pi : oi->parents) {
        if (pi->requires_grad) {
          float* pg = GradPtr(pi.get());
          for (int i = 0; i < pi->rows * n; ++i) {
            pg[i] += oi->grad[static_cast<size_t>(offset) * n + i];
          }
        }
        offset += pi->rows;
      }
    };
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int start, int len) {
  const int m = a.rows(), n = a.cols();
  assert(start >= 0 && start + len <= n);
  Tensor out = Tensor::MakeResult(m, len, {a.impl_}, Tensor::Fill::kOverwrite);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < len; ++c) {
      out.impl_->value[static_cast<size_t>(r) * len + c] =
          a.impl_->value[static_cast<size_t>(r) * n + start + c];
    }
  }
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, oi, m, n, start, len]() {
      float* ag = GradPtr(ai);
      for (int r = 0; r < m; ++r) {
        for (int c = 0; c < len; ++c) {
          ag[static_cast<size_t>(r) * n + start + c] +=
              oi->grad[static_cast<size_t>(r) * len + c];
        }
      }
    };
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int start, int len) {
  const int n = a.cols();
  assert(start >= 0 && start + len <= a.rows());
  Tensor out = Tensor::MakeResult(len, n, {a.impl_}, Tensor::Fill::kOverwrite);
  std::copy(a.impl_->value.begin() + static_cast<size_t>(start) * n,
            a.impl_->value.begin() + static_cast<size_t>(start + len) * n,
            out.impl_->value.begin());
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, oi, n, start, len]() {
      float* ag = GradPtr(ai);
      for (int i = 0; i < len * n; ++i) {
        ag[static_cast<size_t>(start) * n + i] += oi->grad[i];
      }
    };
  }
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int>& indices) {
  const int n = a.cols();
  const int m = static_cast<int>(indices.size());
  Tensor out = Tensor::MakeResult(m, n, {a.impl_}, Tensor::Fill::kOverwrite);
  for (int r = 0; r < m; ++r) {
    assert(indices[r] >= 0 && indices[r] < a.rows());
    std::copy(a.impl_->value.begin() + static_cast<size_t>(indices[r]) * n,
              a.impl_->value.begin() + static_cast<size_t>(indices[r] + 1) * n,
              out.impl_->value.begin() + static_cast<size_t>(r) * n);
  }
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, oi, indices, m, n]() {
      float* ag = GradPtr(ai);
      for (int r = 0; r < m; ++r) {
        for (int c = 0; c < n; ++c) {
          ag[static_cast<size_t>(indices[r]) * n + c] +=
              oi->grad[static_cast<size_t>(r) * n + c];
        }
      }
    };
  }
  return out;
}

Tensor Dropout(const Tensor& a, float p, util::Rng* rng) {
  if (p <= 0.0f) return a;
  const int m = a.rows(), n = a.cols();
  const float scale = 1.0f / (1.0f - p);
  // The mask is itself a (gradient-free) tensor so its storage recycles
  // with the graph; as a parent of `out` it stays alive for the backward
  // pass. Allocated before `out` to preserve the arena's child-after-parent
  // ordering. Leaves without grad never affect any_grad or the topo sweep.
  Tensor mask = NewTensor(m, n, /*requires_grad=*/false, /*zero_fill=*/false);
  Tensor out = Tensor::MakeResult(m, n, {a.impl_, mask.impl_},
                                  Tensor::Fill::kOverwrite);
  float* mv = mask.impl_->value.data();
  for (int i = 0; i < m * n; ++i) {
    mv[i] = rng->Bernoulli(p) ? 0.0f : scale;
    out.impl_->value[i] = a.impl_->value[i] * mv[i];
  }
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const mi = mask.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, mi, oi, m, n]() {
      float* ag = GradPtr(ai);
      const float* mv = mi->value.data();
      for (int i = 0; i < m * n; ++i) ag[i] += oi->grad[i] * mv[i];
    };
  }
  return out;
}

Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& targets) {
  const int m = logits.rows(), n = logits.cols();
  assert(static_cast<int>(targets.size()) == m);
  // Cache the softmax for the backward pass as a gradient-free parent
  // tensor (arena-recycled with the rest of the graph); allocated before
  // `out` to preserve child-after-parent acquisition order.
  Tensor probs = NewTensor(m, n, /*requires_grad=*/false, /*zero_fill=*/false);
  Tensor out = Tensor::MakeResult(1, 1, {logits.impl_, probs.impl_},
                                  Tensor::Fill::kOverwrite);
  float loss = 0;
  for (int r = 0; r < m; ++r) {
    const float* row = logits.impl_->value.data() + static_cast<size_t>(r) * n;
    float* prow = probs.impl_->value.data() + static_cast<size_t>(r) * n;
    float max_v = row[0];
    for (int c = 1; c < n; ++c) max_v = std::max(max_v, row[c]);
    float total = 0;
    for (int c = 0; c < n; ++c) {
      prow[c] = std::exp(row[c] - max_v);
      total += prow[c];
    }
    for (int c = 0; c < n; ++c) prow[c] /= total;
    loss -= std::log(std::max(prow[targets[r]], kLogEps));
  }
  out.impl_->value[0] = loss / static_cast<float>(m);
  if (out.requires_grad()) {
    Tensor::Impl* const li = logits.impl_.get();
    Tensor::Impl* const pi = probs.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [li, pi, oi, targets, m, n]() {
      const float g = oi->grad[0] / static_cast<float>(m);
      float* lg = GradPtr(li);
      for (int r = 0; r < m; ++r) {
        const float* prow = pi->value.data() + static_cast<size_t>(r) * n;
        float* grow = lg + static_cast<size_t>(r) * n;
        for (int c = 0; c < n; ++c) {
          grow[c] += g * (prow[c] - (c == targets[r] ? 1.0f : 0.0f));
        }
      }
    };
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fused serving kernels
// ---------------------------------------------------------------------------
//
// Contiguous row-major single-pass kernels; the __restrict qualifiers and
// simple ascending inner loops are what lets the compiler vectorize them
// (see -DQPE_NATIVE=ON for arch-specific codegen). Forward arithmetic is
// bit-identical to the op chains they replace — see tensor.h.

Tensor LinearRowBias(const Tensor& x, const Tensor& w, const Tensor& bias) {
  assert(x.cols() == w.rows());
  const int m = x.rows(), k = x.cols(), n = w.cols();
  assert(bias.rows() == 1 && bias.cols() == n);
  Tensor out = Tensor::MakeResult(m, n, {x.impl_, w.impl_, bias.impl_});
  const float* xv = x.impl_->value.data();
  const float* wv = w.impl_->value.data();
  const float* biasv = bias.impl_->value.data();
  float* ov = out.impl_->value.data();  // pre-zeroed by MakeResult
  const int64_t flops = 2LL * m * k * n;
  if (flops < kMatMulParallelFlops) {
    MatMulForwardRange(xv, wv, ov, 0, m, k, n);
  } else {
    util::ParallelFor(m, /*grain=*/1, [&](int64_t i0, int64_t i1) {
      MatMulForwardRange(xv, wv, ov, static_cast<int>(i0),
                         static_cast<int>(i1), k, n);
    });
  }
  // Bias is added after each output element's multiply fully accumulated —
  // the same order as the Add(MatMul(x, w), bias) chain, so bit-identical.
  for (int i = 0; i < m; ++i) {
    float* __restrict orow = ov + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) orow[j] += biasv[j];
  }
  if (out.requires_grad()) {
    Tensor::Impl* const xi = x.impl_.get();
    Tensor::Impl* const wi = w.impl_.get();
    Tensor::Impl* const bi = bias.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [xi, wi, bi, oi, m, k, n, flops]() {
      const float* og = oi->grad.data();
      if (xi->requires_grad) {
        float* xg = GradPtr(xi);
        const float* wv = wi->value.data();
        if (flops < kMatMulParallelFlops) {
          MatMulBackwardA(og, wv, xg, 0, m, k, n);
        } else {
          util::ParallelFor(m, /*grain=*/1, [&](int64_t i0, int64_t i1) {
            MatMulBackwardA(og, wv, xg, static_cast<int>(i0),
                            static_cast<int>(i1), k, n);
          });
        }
      }
      if (wi->requires_grad) {
        float* wg = GradPtr(wi);
        const float* xv = xi->value.data();
        if (flops < kMatMulParallelFlops) {
          MatMulBackwardB(xv, og, wg, 0, k, m, k, n);
        } else {
          util::ParallelFor(k, /*grain=*/1, [&](int64_t p0, int64_t p1) {
            MatMulBackwardB(xv, og, wg, static_cast<int>(p0),
                            static_cast<int>(p1), m, k, n);
          });
        }
      }
      if (bi->requires_grad) {
        // Column sums: one add_rows per dOut row keeps the ascending-row
        // accumulation order per bias element.
        float* __restrict bg = GradPtr(bi);
        for (int i = 0; i < m; ++i) {
          simd::K().add_rows(bg, og + static_cast<size_t>(i) * n,
                             static_cast<size_t>(n));
        }
      }
    };
  }
  return out;
}

Tensor LinearRowBiasRelu(const Tensor& x, const Tensor& w,
                         const Tensor& bias) {
  assert(x.cols() == w.rows());
  const int m = x.rows(), k = x.cols(), n = w.cols();
  assert(bias.rows() == 1 && bias.cols() == n);
  Tensor out = Tensor::MakeResult(m, n, {x.impl_, w.impl_, bias.impl_},
                                  Tensor::Fill::kOverwrite);
  const float* xv = x.impl_->value.data();
  const float* wv = w.impl_->value.data();
  const float* biasv = bias.impl_->value.data();
  float* ov = out.impl_->value.data();
  const int64_t flops = 2LL * m * k * n;
  // linear_bias_act is bit-identical to fill + matmul_forward_range + the
  // bias_relu pass (see nn/simd.h), and rows are independent, so splitting
  // the row range across threads keeps LinearRowBias's parallel shape.
  if (flops < kMatMulParallelFlops) {
    simd::K().linear_bias_act(xv, wv, biasv, ov, m, k, n, /*relu=*/1);
  } else {
    util::ParallelFor(m, /*grain=*/1, [&](int64_t i0, int64_t i1) {
      simd::K().linear_bias_act(xv + i0 * k, wv, biasv, ov + i0 * n,
                                static_cast<int>(i1 - i0), k, n, /*relu=*/1);
    });
  }
  if (out.requires_grad()) {
    Tensor::Impl* const xi = x.impl_.get();
    Tensor::Impl* const wi = w.impl_.get();
    Tensor::Impl* const bi = bias.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [xi, wi, bi, oi, m, k, n, flops]() {
      // Recover the pre-activation gradient into a zero-filled scratch by
      // gating dOut on out > 0 (out > 0 iff the pre-activation was > 0:
      // the GEMM accumulator starts at +0 and IEEE addition only yields
      // -0 from two -0 operands, so the clamp gates exactly the <= 0
      // pre-activations). Clamped entries stay exactly +0 — the same bits
      // the separate Relu node's input-grad buffer held in the chain —
      // and the bias column sums ride the same gated pass in the chain's
      // ascending row order, so all three gradients match the
      // LinearRowBias + Relu chain bit for bit.
      thread_local std::vector<float> d_pre;
      d_pre.assign(static_cast<size_t>(m) * n, 0.0f);
      float* bg = bi->requires_grad ? GradPtr(bi) : nullptr;
      simd::K().bias_act_backward(oi->value.data(), oi->grad.data(),
                                  d_pre.data(), bg, m, n);
      const float* og = d_pre.data();
      if (xi->requires_grad) {
        float* xg = GradPtr(xi);
        const float* wv = wi->value.data();
        if (flops < kMatMulParallelFlops) {
          MatMulBackwardA(og, wv, xg, 0, m, k, n);
        } else {
          util::ParallelFor(m, /*grain=*/1, [&](int64_t i0, int64_t i1) {
            MatMulBackwardA(og, wv, xg, static_cast<int>(i0),
                            static_cast<int>(i1), k, n);
          });
        }
      }
      if (wi->requires_grad) {
        float* wg = GradPtr(wi);
        const float* xv = xi->value.data();
        if (flops < kMatMulParallelFlops) {
          MatMulBackwardB(xv, og, wg, 0, k, m, k, n);
        } else {
          util::ParallelFor(k, /*grain=*/1, [&](int64_t p0, int64_t p1) {
            MatMulBackwardB(xv, og, wg, static_cast<int>(p0),
                            static_cast<int>(p1), m, k, n);
          });
        }
      }
    };
  }
  return out;
}

// Row statistics live in simd_kernels_inl.h (simd::LayerNormRowStats): the
// forward and backward kernels of every SIMD level share one definition so
// their mean/recip bits can never diverge.

Tensor LayerNormRows(const Tensor& x, const Tensor& gamma, const Tensor& beta) {
  const int m = x.rows(), n = x.cols();
  assert(gamma.rows() == 1 && gamma.cols() == n);
  assert(beta.rows() == 1 && beta.cols() == n);
  Tensor out = Tensor::MakeResult(m, n, {x.impl_, gamma.impl_, beta.impl_},
                                  Tensor::Fill::kOverwrite);
  const float invn = 1.0f / static_cast<float>(n);
  simd::K().layer_norm_rows(x.impl_->value.data(), gamma.impl_->value.data(),
                            beta.impl_->value.data(), out.impl_->value.data(),
                            m, n, invn);
  if (out.requires_grad()) {
    Tensor::Impl* const xi = x.impl_.get();
    Tensor::Impl* const gi = gamma.impl_.get();
    Tensor::Impl* const bi = beta.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [xi, gi, bi, oi, m, n, invn]() {
      // dxhat = dy * gamma; dx = r * (dxhat - mean(dxhat) - xhat *
      // mean(dxhat * xhat)) — the standard layer-norm backward, in the
      // dispatch table (LayerNormRowsBackwardT) with the row statistics
      // recomputed through the shared LayerNormRowStats.
      float* xg = xi->requires_grad ? GradPtr(xi) : nullptr;
      float* gg = gi->requires_grad ? GradPtr(gi) : nullptr;
      float* bg = bi->requires_grad ? GradPtr(bi) : nullptr;
      simd::K().layer_norm_rows_backward(xi->value.data(), gi->value.data(),
                                         oi->grad.data(), xg, gg, bg, m, n,
                                         invn);
    };
  }
  return out;
}

Tensor SoftmaxRowsMasked(const Tensor& a, const std::vector<int>& valid) {
  const int m = a.rows(), n = a.cols();
  assert(static_cast<int>(valid.size()) == m);
  Tensor out = Tensor::MakeResult(m, n, {a.impl_});
  // Padding columns keep MakeResult's zero fill: the kernel only writes the
  // valid prefix of each row.
  simd::K().softmax_rows_masked(a.impl_->value.data(), out.impl_->value.data(),
                                valid.data(), m, n);
  if (out.requires_grad()) {
    Tensor::Impl* const ai = a.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [ai, oi, valid, m, n]() {
      simd::K().softmax_rows_masked_backward(oi->value.data(),
                                             oi->grad.data(), GradPtr(ai),
                                             valid.data(), m, n);
    };
  }
  return out;
}

Tensor MultiHeadAttentionPacked(const Tensor& q, const Tensor& k,
                                const Tensor& v,
                                const std::vector<int>& offsets,
                                const std::vector<int>& lengths,
                                int num_heads, float scale) {
  const int total = q.rows(), dim = q.cols();
  assert(k.rows() == total && k.cols() == dim);
  assert(v.rows() == total && v.cols() == dim);
  assert(num_heads > 0 && dim % num_heads == 0);
  assert(offsets.size() == lengths.size());
  Tensor out = Tensor::MakeResult(total, dim, {q.impl_, k.impl_, v.impl_});
#ifndef NDEBUG
  for (size_t s = 0; s < lengths.size(); ++s) {
    assert(offsets[s] >= 0 && lengths[s] > 0 &&
           offsets[s] + lengths[s] <= total);
  }
#endif
  // The fused forward (kt pack, scores, softmax, context) lives in the SIMD
  // dispatch table; see AttentionForwardPackedT in simd_kernels_inl.h for
  // the kernel body and its bit-exactness notes. A graph that trains keeps
  // the softmax probabilities ([seq][head][len][len]) for the backward.
  std::vector<float> probs;
  if (out.requires_grad()) {
    size_t count = 0;
    for (const int len : lengths) count += static_cast<size_t>(len) * len;
    probs.resize(count * num_heads);
  }
  simd::K().attention_forward_packed(
      q.impl_->value.data(), k.impl_->value.data(), v.impl_->value.data(),
      out.impl_->value.data(), offsets.data(), lengths.data(),
      static_cast<int>(lengths.size()), num_heads, dim, scale,
      probs.empty() ? nullptr : probs.data());
  if (out.requires_grad()) {
    Tensor::Impl* const qi = q.impl_.get();
    Tensor::Impl* const ki = k.impl_.get();
    Tensor::Impl* const vi = v.impl_.get();
    Tensor::Impl* const oi = out.impl_.get();  // raw: no self-cycle
    out.impl_->backward_fn = [qi, ki, vi, oi, offsets, lengths,
                              probs = std::move(probs), num_heads, scale,
                              dim]() {
      // The backward reads the forward's probabilities instead of
      // recomputing them; see AttentionBackwardPackedT in
      // simd_kernels_inl.h.
      float* qg = qi->requires_grad ? GradPtr(qi) : nullptr;
      float* kg = ki->requires_grad ? GradPtr(ki) : nullptr;
      float* vg = vi->requires_grad ? GradPtr(vi) : nullptr;
      simd::K().attention_backward_packed(
          qi->value.data(), ki->value.data(), vi->value.data(),
          oi->grad.data(), probs.data(), qg, kg, vg, offsets.data(),
          lengths.data(), static_cast<int>(lengths.size()), num_heads, dim,
          scale);
    };
  }
  return out;
}

float ClipGradNorm(const std::vector<Tensor>& params, float max_norm) {
  double total = 0;
  for (const Tensor& p : params) {
    for (float g : p.grad()) total += static_cast<double>(g) * g;
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0) {
    const float scale = max_norm / norm;
    for (Tensor p : params) {  // shared handle: copy aliases the storage
      for (float& g : p.grad()) g *= scale;
    }
  }
  return norm;
}

}  // namespace qpe::nn
