// Micro-benchmarks (google-benchmark) of the library's hot paths: Smatch
// scoring, plan linearization, physical planning, executor simulation,
// encoder inference, MatMul kernels (blocked vs naive reference), and full
// training steps parameterised over the thread count.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "config/db_config.h"
#include "config/lhs_sampler.h"
#include "data/datasets.h"
#include "nn/packed_forward.h"
#include "nn/quant.h"
#include "nn/simd.h"
#include "data/features.h"
#include "data/plan_corpus.h"
#include "encoder/performance_encoder.h"
#include "encoder/ppsr.h"
#include "encoder/structure_encoder.h"
#include "nn/tensor.h"
#include "plan/linearize.h"
#include "plan/serialize.h"
#include "simdb/executor.h"
#include "simdb/planner.h"
#include "simdb/workloads.h"
#include "smatch/smatch.h"
#include "util/thread_pool.h"

namespace {

std::unique_ptr<qpe::plan::PlanNode> MakePlan(int nodes, uint64_t seed) {
  qpe::data::CorpusOptions options;
  options.min_nodes = nodes;
  options.max_nodes = nodes + 4;
  qpe::data::RandomPlanGenerator generator(qpe::util::Rng(seed), options);
  return generator.Generate();
}

void BM_SmatchScore(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const auto a = MakePlan(nodes, 1);
  const auto b = MakePlan(nodes, 2);
  const auto fa = qpe::smatch::Flatten(*a);
  const auto fb = qpe::smatch::Flatten(*b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qpe::smatch::Score(fa, fb).f1);
  }
}
BENCHMARK(BM_SmatchScore)->Arg(10)->Arg(40)->Arg(100);

void BM_SmatchExact(benchmark::State& state) {
  const auto a = MakePlan(7, 3);
  const auto b = MakePlan(7, 4);
  const auto fa = qpe::smatch::Flatten(*a);
  const auto fb = qpe::smatch::Flatten(*b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qpe::smatch::ScoreExact(fa, fb).f1);
  }
}
BENCHMARK(BM_SmatchExact);

void BM_LinearizeDfsBracket(benchmark::State& state) {
  const auto plan = MakePlan(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qpe::plan::LinearizeDfsBracket(*plan));
  }
}
BENCHMARK(BM_LinearizeDfsBracket)->Arg(20)->Arg(100);

// Serialized plans of every TPC-H, TPC-DS and JOB template at two
// instantiations under four sampled knob configurations: the plan texts a
// serving daemon ingests from a template-dominated query log.
const std::vector<std::string>& TemplatePlanTexts() {
  static const std::vector<std::string>* const kTexts = [] {
    auto* texts = new std::vector<std::string>();
    qpe::util::Rng rng(1);
    qpe::config::LhsSampler sampler(rng.Fork());
    const std::vector<qpe::config::DbConfig> configs = sampler.Sample(4);
    const qpe::simdb::TpchWorkload tpch(1.0);
    const qpe::simdb::TpcdsWorkload tpcds(1.0);
    const qpe::simdb::JobWorkload job;
    const qpe::simdb::BenchmarkWorkload* workloads[] = {&tpch, &tpcds, &job};
    for (const qpe::simdb::BenchmarkWorkload* w : workloads) {
      for (int t = 0; t < w->NumTemplates(); ++t) {
        for (int inst = 0; inst < 2; ++inst) {
          const qpe::simdb::QuerySpec spec = w->Instantiate(t, &rng);
          for (const qpe::config::DbConfig& config : configs) {
            qpe::simdb::Planner planner(&w->GetCatalog(), &config);
            texts->push_back(
                qpe::plan::SerializePlanNode(*planner.PlanQuery(spec).root));
          }
        }
      }
    }
    return texts;
  }();
  return *kTexts;
}

// One ParsePlanNodeChecked per iteration, cycling through the template
// pool; time per iteration is the per-plan parse cost.
void BM_ParsePlanNode(benchmark::State& state) {
  const std::vector<std::string>& texts = TemplatePlanTexts();
  size_t i = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    const std::string& text = texts[i];
    benchmark::DoNotOptimize(qpe::plan::ParsePlanNodeChecked(text));
    bytes += static_cast<int64_t>(text.size());
    if (++i == texts.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_ParsePlanNode);

void BM_PlannerTpchQ5(benchmark::State& state) {
  qpe::simdb::TpchWorkload tpch(1.0);
  qpe::config::DbConfig db_config;
  qpe::simdb::Planner planner(&tpch.GetCatalog(), &db_config);
  qpe::util::Rng rng(6);
  const qpe::simdb::QuerySpec spec = tpch.Instantiate(4, &rng);  // Q5, 6-way
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.PlanQuery(spec).NumNodes());
  }
}
BENCHMARK(BM_PlannerTpchQ5);

void BM_ExecutorTpchQ5(benchmark::State& state) {
  qpe::simdb::TpchWorkload tpch(1.0);
  qpe::config::DbConfig db_config;
  qpe::simdb::Planner planner(&tpch.GetCatalog(), &db_config);
  qpe::simdb::ExecutorSim executor(&tpch.GetCatalog(), &db_config);
  qpe::util::Rng rng(6);
  const qpe::simdb::QuerySpec spec = tpch.Instantiate(4, &rng);
  qpe::util::Rng noise(1);
  for (auto _ : state) {
    qpe::plan::Plan planned = planner.PlanQuery(spec);
    benchmark::DoNotOptimize(
        executor.Execute(&planned, spec.cardinality_seed, &noise));
  }
}
BENCHMARK(BM_ExecutorTpchQ5);

void BM_StructureEncoderInference(benchmark::State& state) {
  qpe::util::Rng rng(7);
  qpe::encoder::StructureEncoderConfig config;
  qpe::encoder::TransformerPlanEncoder encoder(config, &rng);
  const auto plan = MakePlan(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(*plan, nullptr).at(0, 0));
  }
}
BENCHMARK(BM_StructureEncoderInference)->Arg(20)->Arg(60);

void BM_PerfEncoderInference(benchmark::State& state) {
  qpe::util::Rng rng(9);
  qpe::encoder::PerformanceEncoder model({}, &rng);
  std::vector<qpe::data::OperatorSample> samples(state.range(0));
  for (auto& sample : samples) {
    sample.node_features.assign(qpe::data::kNodeFeatureDim, 0.1);
    sample.meta_features.assign(qpe::catalog::Catalog::kMetaFeatureDim, 0.2);
    sample.db_features.assign(qpe::config::DbConfig::FeatureDim(), 0.3);
  }
  std::vector<int> all(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) all[i] = static_cast<int>(i);
  for (auto _ : state) {
    const auto batch = qpe::encoder::MakePerfBatch(samples, all);
    benchmark::DoNotOptimize(
        model.PredictLabels(model.Embed(batch.node, batch.meta, batch.db))
            .at(0, 0));
  }
}
BENCHMARK(BM_PerfEncoderInference)->Arg(1)->Arg(32);

// --- MatMul kernels ---------------------------------------------------------

qpe::nn::Tensor RandomTensor(int rows, int cols, uint64_t seed,
                             bool requires_grad) {
  qpe::util::Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(rows) * cols);
  for (float& v : data) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return qpe::nn::Tensor::FromVector(rows, cols, data, requires_grad);
}

// Forward + full backward (dA and dB) through the blocked kernels.
// Args: {size, threads}.
void BM_MatMul(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  qpe::util::SetMaxThreads(static_cast<int>(state.range(1)));
  qpe::nn::Tensor a = RandomTensor(size, size, 11, /*requires_grad=*/true);
  qpe::nn::Tensor b = RandomTensor(size, size, 12, /*requires_grad=*/true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    const qpe::nn::Tensor out = MatMul(a, b);
    Sum(out).Backward();
    benchmark::DoNotOptimize(a.grad()[0]);
  }
  // Forward plus two backward products, 2*n^3 flops each.
  state.SetItemsProcessed(state.iterations() * 3 * 2LL * size * size * size);
  qpe::util::SetMaxThreads(1);
}
BENCHMARK(BM_MatMul)
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({512, 1})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Args({512, 4});

// Same workload through the pre-blocking naive kernel (always
// single-threaded): the baseline the blocked kernels are measured against.
void BM_MatMulReference(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  qpe::util::SetMaxThreads(1);
  qpe::nn::Tensor a = RandomTensor(size, size, 11, /*requires_grad=*/true);
  qpe::nn::Tensor b = RandomTensor(size, size, 12, /*requires_grad=*/true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    const qpe::nn::Tensor out = qpe::nn::MatMulReference(a, b);
    Sum(out).Backward();
    benchmark::DoNotOptimize(a.grad()[0]);
  }
  state.SetItemsProcessed(state.iterations() * 3 * 2LL * size * size * size);
}
BENCHMARK(BM_MatMulReference)->Arg(64)->Arg(256)->Arg(512);

// --- Fused kernels ----------------------------------------------------------

// Fused LayerNorm kernel vs the 8-op composite chain it replaced (both
// inference-mode forwards; the fused forward is bit-identical by contract).
void BM_LayerNormFused(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = 64;
  qpe::nn::NoGradGuard no_grad;
  const qpe::nn::Tensor x = RandomTensor(rows, cols, 21, false);
  const qpe::nn::Tensor gamma = RandomTensor(1, cols, 22, false);
  const qpe::nn::Tensor beta = RandomTensor(1, cols, 23, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LayerNormRows(x, gamma, beta).at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_LayerNormFused)->Arg(16)->Arg(256);

void BM_LayerNormUnfused(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = 64;
  qpe::nn::NoGradGuard no_grad;
  const qpe::nn::Tensor x = RandomTensor(rows, cols, 21, false);
  const qpe::nn::Tensor gamma = RandomTensor(1, cols, 22, false);
  const qpe::nn::Tensor beta = RandomTensor(1, cols, 23, false);
  for (auto _ : state) {
    const qpe::nn::Tensor mean = RowMean(x);
    const qpe::nn::Tensor centered = Sub(x, mean);
    const qpe::nn::Tensor var = RowMean(Square(centered));
    const qpe::nn::Tensor inv_std = Sqrt(AddScalar(var, 1e-5f));
    const qpe::nn::Tensor recip = Exp(Scale(Log(inv_std), -1.0f));
    benchmark::DoNotOptimize(
        Add(Mul(Mul(centered, recip), gamma), beta).at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_LayerNormUnfused)->Arg(16)->Arg(256);

// Masked row softmax (the batched attention kernel) with all rows fully
// valid, against the unmasked kernel it must match bit-for-bit.
void BM_SoftmaxRowsMasked(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = 64;
  qpe::nn::NoGradGuard no_grad;
  const qpe::nn::Tensor a = RandomTensor(rows, cols, 26, false);
  const std::vector<int> valid(rows, cols);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxRowsMasked(a, valid).at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_SoftmaxRowsMasked)->Arg(16)->Arg(256);

void BM_SoftmaxRowsUnmasked(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = 64;
  qpe::nn::NoGradGuard no_grad;
  const qpe::nn::Tensor a = RandomTensor(rows, cols, 26, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxRows(a).at(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_SoftmaxRowsUnmasked)->Arg(16)->Arg(256);

// --- SIMD kernel dispatch ---------------------------------------------------
//
// Each pair drives the same kernel table entry once through the scalar
// reference table and once through the best table this hardware dispatches
// (on scalar-only machines both rows measure the scalar kernel, so the
// pair reads as 1.0x rather than failing). The kernels are called directly
// — no autograd graph — so the pair isolates the vectorization win itself.

const qpe::nn::simd::Kernels& ScalarKernels() {
  return *qpe::nn::simd::TableFor(qpe::nn::simd::Level::kScalar);
}

const qpe::nn::simd::Kernels& BestKernels() {
  return *qpe::nn::simd::TableFor(qpe::nn::simd::HardwareLevel());
}

std::vector<float> RandomBuffer(size_t n, uint64_t seed) {
  qpe::util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

// Forward-only GEMM at the serving shape family. Args: {m, k, n}.
void MatMulForwardKernel(benchmark::State& state,
                         const qpe::nn::simd::Kernels& kern) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const std::vector<float> a = RandomBuffer(static_cast<size_t>(m) * k, 31);
  const std::vector<float> b = RandomBuffer(static_cast<size_t>(k) * n, 32);
  std::vector<float> out(static_cast<size_t>(m) * n);
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    kern.matmul_forward_range(a.data(), b.data(), out.data(), 0, m, k, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
  state.SetLabel(kern.name);
}
void BM_MatMulForwardScalar(benchmark::State& state) {
  MatMulForwardKernel(state, ScalarKernels());
}
void BM_MatMulForwardSimd(benchmark::State& state) {
  MatMulForwardKernel(state, BestKernels());
}
BENCHMARK(BM_MatMulForwardScalar)->Args({256, 48, 48})->Args({256, 256, 256});
BENCHMARK(BM_MatMulForwardSimd)->Args({256, 48, 48})->Args({256, 256, 256});

void LayerNormKernel(benchmark::State& state,
                     const qpe::nn::simd::Kernels& kern) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = 64;
  const std::vector<float> x =
      RandomBuffer(static_cast<size_t>(rows) * cols, 33);
  const std::vector<float> gamma = RandomBuffer(cols, 34);
  const std::vector<float> beta = RandomBuffer(cols, 35);
  std::vector<float> out(x.size());
  const float invn = 1.0f / static_cast<float>(cols);
  for (auto _ : state) {
    kern.layer_norm_rows(x.data(), gamma.data(), beta.data(), out.data(),
                         rows, cols, invn);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
  state.SetLabel(kern.name);
}
void BM_LayerNormScalar(benchmark::State& state) {
  LayerNormKernel(state, ScalarKernels());
}
void BM_LayerNormSimd(benchmark::State& state) {
  LayerNormKernel(state, BestKernels());
}
BENCHMARK(BM_LayerNormScalar)->Arg(256);
BENCHMARK(BM_LayerNormSimd)->Arg(256);

void SoftmaxMaskedKernel(benchmark::State& state,
                         const qpe::nn::simd::Kernels& kern) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = 64;
  const std::vector<float> a =
      RandomBuffer(static_cast<size_t>(rows) * cols, 36);
  const std::vector<int> valid(rows, cols);
  std::vector<float> out(a.size());
  for (auto _ : state) {
    kern.softmax_rows_masked(a.data(), out.data(), valid.data(), rows, cols);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
  state.SetLabel(kern.name);
}
void BM_SoftmaxMaskedScalar(benchmark::State& state) {
  SoftmaxMaskedKernel(state, ScalarKernels());
}
void BM_SoftmaxMaskedSimd(benchmark::State& state) {
  SoftmaxMaskedKernel(state, BestKernels());
}
BENCHMARK(BM_SoftmaxMaskedScalar)->Arg(256);
BENCHMARK(BM_SoftmaxMaskedSimd)->Arg(256);

// Packed ragged-batch attention at the model shape (48 dims, 4 heads),
// 16 sequences of the given length. Arg: sequence length.
void AttentionPackedKernel(benchmark::State& state,
                           const qpe::nn::simd::Kernels& kern) {
  const int len = static_cast<int>(state.range(0));
  const int num_seqs = 16, num_heads = 4, dim = 48;
  std::vector<int> offsets(num_seqs), lengths(num_seqs, len);
  for (int s = 0; s < num_seqs; ++s) offsets[s] = s * len;
  const int total = num_seqs * len;
  const std::vector<float> q = RandomBuffer(static_cast<size_t>(total) * dim, 37);
  const std::vector<float> k = RandomBuffer(static_cast<size_t>(total) * dim, 38);
  const std::vector<float> v = RandomBuffer(static_cast<size_t>(total) * dim, 39);
  std::vector<float> out(q.size());
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim / num_heads));
  for (auto _ : state) {
    kern.attention_forward_packed(q.data(), k.data(), v.data(), out.data(),
                                  offsets.data(), lengths.data(), num_seqs,
                                  num_heads, dim, scale, nullptr);
    benchmark::DoNotOptimize(out.data());
  }
  // Scores + context: 2 * T^2 * dim MACs per sequence.
  state.SetItemsProcessed(state.iterations() * num_seqs * 2LL * len * len *
                          dim * 2);
  state.SetLabel(kern.name);
}
void BM_AttentionPackedScalar(benchmark::State& state) {
  AttentionPackedKernel(state, ScalarKernels());
}
void BM_AttentionPackedSimd(benchmark::State& state) {
  AttentionPackedKernel(state, BestKernels());
}
BENCHMARK(BM_AttentionPackedScalar)->Arg(32);
BENCHMARK(BM_AttentionPackedSimd)->Arg(32);

// Head-blocked attention at the same shape, including the per-layer K/V
// repack the engine pays — the pair against BM_AttentionPacked measures
// what head blocking buys end to end. Arg: sequence length.
void AttentionBlockedKernel(benchmark::State& state,
                            const qpe::nn::simd::Kernels& kern) {
  const int len = static_cast<int>(state.range(0));
  const int num_seqs = 16, num_heads = 4, dim = 48;
  std::vector<int> offsets(num_seqs), lengths(num_seqs, len);
  for (int s = 0; s < num_seqs; ++s) offsets[s] = s * len;
  const int total = num_seqs * len;
  const std::vector<float> q = RandomBuffer(static_cast<size_t>(total) * dim, 37);
  const std::vector<float> k = RandomBuffer(static_cast<size_t>(total) * dim, 38);
  const std::vector<float> v = RandomBuffer(static_cast<size_t>(total) * dim, 39);
  std::vector<float> kbt(k.size()), vb(v.size());
  std::vector<float> probs(static_cast<size_t>(len) * len);
  std::vector<float> out(q.size());
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim / num_heads));
  for (auto _ : state) {
    qpe::nn::RepackHeadsKT(k.data(), total, dim, num_heads, kbt.data());
    qpe::nn::RepackHeadsVB(v.data(), total, dim, num_heads, vb.data());
    kern.attention_forward_blocked(q.data(), kbt.data(), vb.data(),
                                   out.data(), offsets.data(), lengths.data(),
                                   num_seqs, num_heads, total, dim, scale,
                                   probs.data(), /*keep_probs=*/0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * num_seqs * 2LL * len * len *
                          dim * 2);
  state.SetLabel(kern.name);
}
void BM_AttentionBlockedScalar(benchmark::State& state) {
  AttentionBlockedKernel(state, ScalarKernels());
}
void BM_AttentionBlockedSimd(benchmark::State& state) {
  AttentionBlockedKernel(state, BestKernels());
}
BENCHMARK(BM_AttentionBlockedScalar)->Arg(32);
BENCHMARK(BM_AttentionBlockedSimd)->Arg(32);

// --- Training backward kernels at the PPSR training shapes -----------------
//
// One pair of plans per shard packs to about 56 rows; the model has d = 48,
// f = 96 and 4 heads of width 12. The gradient buffers accumulate across
// iterations exactly as they accumulate across a step's sites.

// Input-gradient GEMM dA += dOut * B^T. Args: {m, k, n}.
void MatMulBackwardAKernel(benchmark::State& state,
                           const qpe::nn::simd::Kernels& kern) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const std::vector<float> og = RandomBuffer(static_cast<size_t>(m) * n, 61);
  const std::vector<float> b = RandomBuffer(static_cast<size_t>(k) * n, 62);
  std::vector<float> ag(static_cast<size_t>(m) * k, 0.0f);
  for (auto _ : state) {
    kern.matmul_backward_a(og.data(), b.data(), ag.data(), 0, m, k, n);
    benchmark::DoNotOptimize(ag.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
  state.SetLabel(kern.name);
}
void BM_MatMulBackwardAScalar(benchmark::State& state) {
  MatMulBackwardAKernel(state, ScalarKernels());
}
void BM_MatMulBackwardASimd(benchmark::State& state) {
  MatMulBackwardAKernel(state, BestKernels());
}
BENCHMARK(BM_MatMulBackwardAScalar)
    ->Args({56, 48, 48})->Args({56, 96, 48})->Args({56, 48, 96});
BENCHMARK(BM_MatMulBackwardASimd)
    ->Args({56, 48, 48})->Args({56, 96, 48})->Args({56, 48, 96});

// Weight-gradient GEMM dB += A^T * dOut. Args: {m, k, n, relu_sparse}; with
// relu_sparse the negative half of A is zeroed like the ff1 ReLU output
// that feeds the ff2 weight gradient.
void MatMulBackwardBKernel(benchmark::State& state,
                           const qpe::nn::simd::Kernels& kern) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  std::vector<float> a = RandomBuffer(static_cast<size_t>(m) * k, 63);
  if (state.range(3) != 0) {
    for (float& x : a) x = std::max(x, 0.0f);
  }
  const std::vector<float> og = RandomBuffer(static_cast<size_t>(m) * n, 64);
  std::vector<float> bg(static_cast<size_t>(k) * n, 0.0f);
  for (auto _ : state) {
    kern.matmul_backward_b(a.data(), og.data(), bg.data(), 0, k, m, k, n);
    benchmark::DoNotOptimize(bg.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
  state.SetLabel(kern.name);
}
void BM_MatMulBackwardBScalar(benchmark::State& state) {
  MatMulBackwardBKernel(state, ScalarKernels());
}
void BM_MatMulBackwardBSimd(benchmark::State& state) {
  MatMulBackwardBKernel(state, BestKernels());
}
BENCHMARK(BM_MatMulBackwardBScalar)
    ->Args({56, 48, 48, 0})->Args({56, 48, 96, 0})->Args({56, 96, 48, 0})
    ->Args({56, 96, 48, 1});
BENCHMARK(BM_MatMulBackwardBSimd)
    ->Args({56, 48, 48, 0})->Args({56, 48, 96, 0})->Args({56, 96, 48, 0})
    ->Args({56, 96, 48, 1});

// Packed attention backward for one training shard: two sequences of the
// given length (56 rows at 28), d 48, 4 heads, reading the probabilities
// the forward kept (computed once, outside the timed loop). Arg: length.
void AttentionBackwardKernel(benchmark::State& state,
                             const qpe::nn::simd::Kernels& kern) {
  const int len = static_cast<int>(state.range(0));
  const int num_seqs = 2, num_heads = 4, dim = 48;
  const std::vector<int> offsets = {0, len}, lengths = {len, len};
  const int total = num_seqs * len;
  const size_t size = static_cast<size_t>(total) * dim;
  const std::vector<float> q = RandomBuffer(size, 65);
  const std::vector<float> k = RandomBuffer(size, 66);
  const std::vector<float> v = RandomBuffer(size, 67);
  const std::vector<float> og = RandomBuffer(size, 68);
  std::vector<float> out(size);
  std::vector<float> probs(static_cast<size_t>(num_seqs) * num_heads * len *
                           len);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim / num_heads));
  kern.attention_forward_packed(q.data(), k.data(), v.data(), out.data(),
                                offsets.data(), lengths.data(), num_seqs,
                                num_heads, dim, scale, probs.data());
  std::vector<float> qg(size, 0.0f), kg(size, 0.0f), vg(size, 0.0f);
  for (auto _ : state) {
    kern.attention_backward_packed(q.data(), k.data(), v.data(), og.data(),
                                   probs.data(), qg.data(), kg.data(),
                                   vg.data(), offsets.data(), lengths.data(),
                                   num_seqs, num_heads, dim, scale);
    benchmark::DoNotOptimize(qg.data());
  }
  // d_probs, d_v, d_q, d_k: 4 * T^2 * dim MACs per sequence.
  state.SetItemsProcessed(state.iterations() * num_seqs * 4LL * len * len *
                          dim * 2);
  state.SetLabel(kern.name);
}
void BM_AttentionBackwardScalar(benchmark::State& state) {
  AttentionBackwardKernel(state, ScalarKernels());
}
void BM_AttentionBackwardSimd(benchmark::State& state) {
  AttentionBackwardKernel(state, BestKernels());
}
BENCHMARK(BM_AttentionBackwardScalar)->Arg(28);
BENCHMARK(BM_AttentionBackwardSimd)->Arg(28);

// Fused embedding gather + positional add at the model dims (24+12+12),
// the packed pipeline's batch-assembly kernel. Arg: packed rows.
void EmbedGatherKernel(benchmark::State& state,
                       const qpe::nn::simd::Kernels& kern) {
  const int rows = static_cast<int>(state.range(0));
  const int d1 = 24, d2 = 12, d3 = 12;
  const int d = d1 + d2 + d3;
  const int vocab = 64, max_len = 256;
  const std::vector<float> e1 = RandomBuffer(static_cast<size_t>(vocab) * d1, 51);
  const std::vector<float> e2 = RandomBuffer(static_cast<size_t>(vocab) * d2, 52);
  const std::vector<float> e3 = RandomBuffer(static_cast<size_t>(vocab) * d3, 53);
  const std::vector<float> pos =
      RandomBuffer(static_cast<size_t>(max_len) * d, 54);
  qpe::util::Rng rng(55);
  std::vector<int> ids1(rows), ids2(rows), ids3(rows), positions(rows);
  for (int r = 0; r < rows; ++r) {
    ids1[r] = rng.UniformInt(0, vocab - 1);
    ids2[r] = rng.UniformInt(0, vocab - 1);
    ids3[r] = rng.UniformInt(0, vocab - 1);
    positions[r] = rng.UniformInt(0, max_len - 1);
  }
  std::vector<float> out(static_cast<size_t>(rows) * d);
  for (auto _ : state) {
    kern.embed_gather_add(e1.data(), e2.data(), e3.data(), pos.data(),
                          ids1.data(), ids2.data(), ids3.data(),
                          positions.data(), out.data(), rows, d1, d2, d3);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * d);
  state.SetLabel(kern.name);
}
void BM_EmbedGatherScalar(benchmark::State& state) {
  EmbedGatherKernel(state, ScalarKernels());
}
void BM_EmbedGatherSimd(benchmark::State& state) {
  EmbedGatherKernel(state, BestKernels());
}
BENCHMARK(BM_EmbedGatherScalar)->Arg(512);
BENCHMARK(BM_EmbedGatherSimd)->Arg(512);

// Int8 GEMM over pre-packed weight tiles (the quantized serving engine's
// layout). Packing happens once outside the loop, exactly as in
// QuantizedLinear. Uses the dispatched (best) table. Args: {m, k, n}.
void BM_Int8GemmPacked(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const qpe::nn::simd::Kernels& kern = BestKernels();
  qpe::util::Rng rng(40);
  const int k_pad = qpe::nn::simd::Int8PackedKPad(k);
  std::vector<int8_t> a(static_cast<size_t>(m) * k_pad, 0);
  std::vector<int8_t> b(static_cast<size_t>(n) * k);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) {
      a[static_cast<size_t>(i) * k_pad + j] =
          static_cast<int8_t>(rng.UniformInt(-127, 127));
    }
  }
  for (int8_t& x : b) {
    x = static_cast<int8_t>(rng.UniformInt(-127, 127));
  }
  std::vector<int16_t> packed(qpe::nn::simd::Int8PackedSize(k, n));
  qpe::nn::simd::PackInt8WeightTiles(b.data(), k, n, packed.data());
  const std::vector<float> a_scale(m, 0.01f);
  const std::vector<float> b_scale(n, 0.02f);
  const std::vector<float> bias = RandomBuffer(n, 41);
  std::vector<float> c(static_cast<size_t>(m) * n);
  for (auto _ : state) {
    kern.int8_gemm_packed(a.data(), packed.data(), c.data(), m, k, n,
                          a_scale.data(), b_scale.data(), bias.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
  state.SetLabel(kern.name);
}
BENCHMARK(BM_Int8GemmPacked)->Args({256, 48, 48})->Args({256, 256, 256});

// --- Training steps ---------------------------------------------------------

// One PPSR training epoch (24 pairs, transformer encoder) per iteration.
// Arg: thread count.
void BM_TrainStepPpsr(benchmark::State& state) {
  qpe::util::SetMaxThreads(static_cast<int>(state.range(0)));
  qpe::data::PairDatasetOptions options;
  options.num_pairs = 24;
  options.corpus.min_nodes = 4;
  options.corpus.max_nodes = 16;
  const qpe::data::PlanPairDataset dataset =
      qpe::data::BuildCorpusPairDataset(options);
  qpe::util::Rng rng(14);
  qpe::encoder::StructureEncoderConfig config;
  config.num_layers = 1;
  qpe::encoder::PpsrModel model(
      std::make_unique<qpe::encoder::TransformerPlanEncoder>(config, &rng),
      &rng);
  qpe::encoder::PpsrTrainOptions train_options;
  train_options.epochs = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qpe::encoder::TrainPpsr(&model, dataset.train, train_options));
  }
  qpe::util::SetMaxThreads(1);
}
BENCHMARK(BM_TrainStepPpsr)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// One performance-encoder training epoch (128 synthetic operator samples,
// including the per-epoch train-MAE evaluation) per iteration. Arg: thread
// count.
void BM_TrainStepPerfEncoder(benchmark::State& state) {
  qpe::util::SetMaxThreads(static_cast<int>(state.range(0)));
  qpe::util::Rng rng(9);
  qpe::encoder::PerformanceEncoder model({}, &rng);
  qpe::data::OperatorDataset dataset;
  dataset.train.resize(128);
  qpe::util::Rng feature_rng(10);
  for (size_t i = 0; i < dataset.train.size(); ++i) {
    auto& sample = dataset.train[i];
    sample.node_features.resize(qpe::data::kNodeFeatureDim);
    sample.meta_features.resize(qpe::catalog::Catalog::kMetaFeatureDim);
    sample.db_features.resize(qpe::config::DbConfig::FeatureDim());
    for (double& v : sample.node_features) v = feature_rng.Uniform();
    for (double& v : sample.meta_features) v = feature_rng.Uniform();
    for (double& v : sample.db_features) v = feature_rng.Uniform();
    sample.actual_total_time_ms = 10.0 * (i % 7 + 1);
    sample.total_cost = 100.0 * (i % 5 + 1);
    sample.startup_cost = 1.0 * (i % 3 + 1);
  }
  qpe::encoder::PerfTrainOptions options;
  options.epochs = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qpe::encoder::TrainPerformanceEncoder(&model, dataset, options)
            .size());
  }
  qpe::util::SetMaxThreads(1);
}
BENCHMARK(BM_TrainStepPerfEncoder)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- train_step_speedup context stamp ---------------------------------------

// The structure encoder with its packed EncodeBatchGrad override replaced
// by the base class's per-plan op-chain loop: the reference side of
// train_step_speedup.
class PerPlanTransformerEncoder : public qpe::encoder::TransformerPlanEncoder {
 public:
  using TransformerPlanEncoder::TransformerPlanEncoder;
  std::vector<qpe::nn::Tensor> EncodeBatchGrad(
      std::span<const qpe::plan::PlanNode* const> plans,
      qpe::util::Rng* dropout_rng) const override {
    return PlanSequenceEncoder::EncodeBatchGrad(plans, dropout_rng);
  }
};

// Best-of-3 single-threaded PPSR training epochs (same model shape and data
// as BM_TrainStepPpsr), fresh model per repetition so every measurement
// times epoch 1 from identical weights.
template <typename Encoder>
double BestTrainEpochMs(const qpe::data::PlanPairDataset& dataset) {
  qpe::util::SetMaxThreads(1);
  double best_ms = 0;
  for (int rep = 0; rep < 3; ++rep) {
    qpe::util::Rng rng(14);
    qpe::encoder::StructureEncoderConfig config;
    config.num_layers = 1;
    qpe::encoder::PpsrModel model(std::make_unique<Encoder>(config, &rng),
                                  &rng);
    qpe::encoder::PpsrTrainOptions train_options;
    train_options.epochs = 1;
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        qpe::encoder::TrainPpsr(&model, dataset.train, train_options));
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

// The packed-training win, measured in-process so the regression gate can
// hold an absolute floor on it: per-plan op-chain training graphs vs the
// packed forward/backward on the exact same single-threaded epoch. A ratio
// of wall-clock ratios is largely frequency-insensitive, which is what an
// absolute floor needs on shared hosts.
std::string MeasureTrainStepSpeedup() {
  qpe::data::PairDatasetOptions options;
  options.num_pairs = 24;
  options.corpus.min_nodes = 4;
  options.corpus.max_nodes = 16;
  const qpe::data::PlanPairDataset dataset =
      qpe::data::BuildCorpusPairDataset(options);
  const double per_plan_ms =
      BestTrainEpochMs<PerPlanTransformerEncoder>(dataset);
  const double packed_ms =
      BestTrainEpochMs<qpe::encoder::TransformerPlanEncoder>(dataset);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                packed_ms > 0 ? per_plan_ms / packed_ms : 0.0);
  return buf;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): stamp this binary's build type
// into the JSON context so the baseline scripts can refuse debug-recorded
// numbers. (The reporter's own `library_build_type` field describes how
// libbenchmark was compiled, not this binary.)
int main(int argc, char** argv) {
  benchmark::AddCustomContext("qpe_build_type", QPE_BUILD_TYPE);
  benchmark::AddCustomContext(
      "qpe_simd_level",
      qpe::nn::simd::LevelName(qpe::nn::simd::ActiveLevel()));
  benchmark::AddCustomContext("train_step_speedup",
                              MeasureTrainStepSpeedup());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
