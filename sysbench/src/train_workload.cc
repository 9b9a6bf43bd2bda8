// train_encoders: offline pretraining, no sockets and no cache.
//
// Set-up builds both models and executes the TPC-H, TPC-DS and JOB
// workloads on simdb to make the performance encoder's operator samples.
// The timed loop then runs rounds; one round Smatch-labels kPairsPerRound fresh corpus plan pairs,
// takes one PPSR training step on them (the data-parallel gradient step
// TrainPpsr runs, then gradient clipping and Adam), and takes one
// performance-encoder step on kPerfBatch operator samples. The traced run
// replays the same rounds with a span around each public call.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "config/lhs_sampler.h"
#include "data/datasets.h"
#include "data/features.h"
#include "data/plan_corpus.h"
#include "encoder/performance_encoder.h"
#include "encoder/ppsr.h"
#include "encoder/structure_encoder.h"
#include "nn/arena.h"
#include "nn/optimizer.h"
#include "nn/parallel.h"
#include "nn/tensor.h"
#include "simdb/executor.h"
#include "simdb/planner.h"
#include "simdb/workload_runner.h"
#include "simdb/workloads.h"
#include "smatch/smatch.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sysbench {
namespace {

using qpe::plan::PlanNode;

constexpr int kPairsPerRound = 8;
constexpr int kPerfBatch = 32;
constexpr int kPerfShardRows = 8;  // as TrainPerformanceEncoder
constexpr int kCorpusPlans = 2048;
constexpr int kPairPool = 4096;    // cycled if a run outlasts it
constexpr int kHeldOutPairs = 256;
constexpr int kSmallPairs = 32;
constexpr int kMaxNodes = 24;  // corpus plan size cap for PPSR pairs
constexpr int kPerfConfigs = 16;
constexpr int kPerfInstances = 2;
constexpr uint64_t kModelSeed = 42;

struct Pair {
  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;
};

// Corpus pairs as the PPSR pretraining set builds them: half are a plan and
// a structural mutation of it (high Smatch), half two random corpus plans.
std::vector<Pair> MakePairs(uint64_t seed, int count, int max_nodes) {
  qpe::util::Rng rng(seed);
  qpe::data::CorpusOptions corpus;
  corpus.max_nodes = max_nodes;
  qpe::data::RandomPlanGenerator generator(rng.Fork(), corpus);
  qpe::data::RandomPlanGenerator mutator(rng.Fork(), corpus);
  const int pool_size = std::max(8, std::min(kCorpusPlans, count / 2));
  std::vector<std::unique_ptr<PlanNode>> pool;
  for (int i = 0; i < pool_size; ++i) pool.push_back(generator.Generate());
  std::vector<Pair> pairs;
  for (int i = 0; i < count; ++i) {
    const PlanNode& left = *pool[rng.UniformInt(0, pool_size - 1)];
    Pair pair;
    pair.left = left.Clone();
    pair.right = rng.Bernoulli(0.5)
                     ? mutator.Mutate(left, rng.Uniform(0.05, 0.5))
                     : pool[rng.UniformInt(0, pool_size - 1)]->Clone();
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

// Both models with their optimizers. Weights start from a fixed seed; the
// untraced and traced replay passes each own one, so both do identical
// arithmetic. Learning rates are the programs' defaults (PpsrTrainOptions,
// PerfTrainOptions).
struct Trainer {
  Trainer()
      : init_rng(kModelSeed),
        ppsr(std::make_unique<qpe::encoder::TransformerPlanEncoder>(
                 qpe::encoder::StructureEncoderConfig{}, &init_rng),
             &init_rng),
        ppsr_params(ppsr.Parameters()),
        ppsr_opt(ppsr_params, 5e-4f),
        perf(qpe::encoder::PerfEncoderConfig{}, &init_rng),
        perf_params(perf.Parameters()),
        perf_opt(perf_params, 2e-3f),
        dropout_rng(kModelSeed + 1) {
    ppsr.SetTraining(true);
    perf.SetTraining(true);
  }

  qpe::util::Rng init_rng;
  qpe::encoder::PpsrModel ppsr;
  std::vector<qpe::nn::Tensor> ppsr_params;
  qpe::nn::Adam ppsr_opt;
  qpe::nn::ShardGradBuffers ppsr_scratch;
  qpe::encoder::PerformanceEncoder perf;
  std::vector<qpe::nn::Tensor> perf_params;
  qpe::nn::Adam perf_opt;
  qpe::nn::ShardGradBuffers perf_scratch;
  qpe::util::Rng dropout_rng;
  size_t perf_cursor = 0;
  uint64_t skipped_steps = 0;  // non-finite loss: update dropped, as TrainPpsr does
  double label_sum = 0;
  uint64_t labels = 0;
};

struct Inputs {
  std::vector<Pair> pairs;
  std::vector<int> perf_order;  // cycled permutation of the train samples
  qpe::data::OperatorDataset perf;
};

// One round. Returns false if a label fell outside [0, 1].
bool RunRound(const Inputs& in, size_t round, Trainer* t, SpanRecorder* rec) {
  const uint64_t id = round + 1;
  ScopedSpan round_span(rec, "round", id);
  double targets[kPairsPerRound];
  const Pair* batch[kPairsPerRound];
  bool labels_ok = true;
  for (int i = 0; i < kPairsPerRound; ++i) {
    batch[i] = &in.pairs[(round * kPairsPerRound + i) % in.pairs.size()];
    ScopedSpan label(rec, "smatch.label", id);
    qpe::smatch::FlatPlan left, right;
    {
      ScopedSpan s(rec, "smatch.flatten", id);
      left = qpe::smatch::Flatten(*batch[i]->left);
      right = qpe::smatch::Flatten(*batch[i]->right);
    }
    ScopedSpan s(rec, "smatch.score", id);
    targets[i] = qpe::smatch::Score(left, right).f1;
    labels_ok = labels_ok && targets[i] >= 0 && targets[i] <= 1;
    t->label_sum += targets[i];
    t->labels += 1;
  }
  {
    ScopedSpan step(rec, "ppsr.step", id);
    qpe::util::Rng shard_rngs[kPairsPerRound];
    for (qpe::util::Rng& r : shard_rngs) r = t->dropout_rng.Fork();
    t->ppsr.ZeroGrad();
    double loss = 0;
    {
      ScopedSpan grad(rec, "ppsr.grad_step", id);
      loss = qpe::nn::ParallelGradientStep(
          t->ppsr_params, kPairsPerRound,
          [&](int s) {
            ScopedSpan fwd(rec, "ppsr.forward", id);
            const qpe::nn::Tensor pred = t->ppsr.PredictSimilarity(
                *batch[s]->left, *batch[s]->right, &shard_rngs[s]);
            const qpe::nn::Tensor target =
                qpe::nn::Tensor::Scalar(static_cast<float>(targets[s]));
            return Scale(Square(Sub(pred, target)), 1.0f / kPairsPerRound);
          },
          &t->ppsr_scratch);
    }
    ScopedSpan opt(rec, "optimizer.step", id);
    if (std::isfinite(loss)) {
      ClipGradNorm(t->ppsr_params, 5.0f);
      t->ppsr_opt.Step();
    } else {
      ++t->skipped_steps;
    }
  }
  {
    ScopedSpan step(rec, "perf.step", id);
    std::vector<int> indices(kPerfBatch);
    for (int& i : indices) {
      i = in.perf_order[t->perf_cursor++ % in.perf_order.size()];
    }
    t->perf.ZeroGrad();
    double loss = 0;
    {
      ScopedSpan grad(rec, "perf.grad_step", id);
      loss = qpe::nn::ParallelGradientStep(
          t->perf_params, kPerfBatch / kPerfShardRows,
          [&](int s) {
            ScopedSpan fwd(rec, "perf.forward", id);
            const std::vector<int> shard(indices.begin() + s * kPerfShardRows,
                                         indices.begin() + (s + 1) * kPerfShardRows);
            const qpe::encoder::PerfBatch b =
                qpe::encoder::MakePerfBatch(in.perf.train, shard);
            const qpe::nn::Tensor pred =
                t->perf.PredictLabels(t->perf.Embed(b.node, b.meta, b.db));
            return Scale(Sum(Square(Sub(pred, b.labels))),
                         1.0f / static_cast<float>(kPerfBatch * 3));
          },
          &t->perf_scratch);
    }
    ScopedSpan opt(rec, "perf.optimizer", id);
    if (std::isfinite(loss)) {
      ClipGradNorm(t->perf_params, 5.0f);
      t->perf_opt.Step();
    } else {
      ++t->skipped_steps;
    }
  }
  return labels_ok;
}

// simdb execution of the perf-encoder corpus. Untraced it is RunWorkload;
// traced, the same per-query Planner/ExecutorSim calls in RunWorkload's
// order and with its random streams, each under a span.
std::vector<qpe::simdb::ExecutedQuery> ExecuteWorkload(
    const qpe::simdb::BenchmarkWorkload& workload,
    const std::vector<qpe::config::DbConfig>& configs,
    const qpe::simdb::RunOptions& options, SpanRecorder* rec) {
  if (!rec->enabled()) return qpe::simdb::RunWorkload(workload, configs, options);
  qpe::util::Rng instance_stream(options.seed);
  qpe::util::Rng noise_stream(options.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  std::vector<qpe::simdb::ExecutedQuery> executed;
  uint64_t id = 0;
  for (int t = 0; t < workload.NumTemplates(); ++t) {
    for (int i = 0; i < options.instances_per_template; ++i) {
      qpe::util::Rng instance_rng = instance_stream.Fork();
      std::vector<qpe::util::Rng> noise;
      for (size_t c = 0; c < configs.size(); ++c) noise.push_back(noise_stream.Fork());
      const qpe::simdb::QuerySpec spec = workload.Instantiate(t, &instance_rng);
      for (size_t c = 0; c < configs.size(); ++c) {
        ScopedSpan query(rec, "simdb.query", ++id);
        qpe::simdb::ExecutedQuery record;
        {
          ScopedSpan s(rec, "simdb.plan", id);
          qpe::simdb::Planner planner(&workload.GetCatalog(), &configs[c]);
          record.query = planner.PlanQuery(spec);
        }
        ScopedSpan s(rec, "simdb.run", id);
        qpe::simdb::ExecutorSim executor(&workload.GetCatalog(), &configs[c]);
        record.latency_ms =
            executor.Execute(&record.query, spec.cardinality_seed, &noise[c]);
        record.db_config = configs[c];
        record.template_index = t;
        record.instance_index = i;
        executed.push_back(std::move(record));
      }
    }
  }
  return executed;
}


// MAE of the time label in its encoded (log) space, over `samples`.
double EncodedTimeMae(const qpe::encoder::PerfEncoderBase& model,
                      const std::vector<qpe::data::OperatorSample>& samples) {
  if (samples.empty()) return 0;
  qpe::nn::ArenaScope arena;
  qpe::nn::NoGradGuard no_grad;
  std::vector<int> all(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) all[i] = static_cast<int>(i);
  const qpe::encoder::PerfBatch batch = qpe::encoder::MakePerfBatch(samples, all);
  const qpe::nn::Tensor pred =
      model.PredictLabels(model.Embed(batch.node, batch.meta, batch.db));
  double total = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    total += std::fabs(pred.value()[i * pred.cols()] -
                       qpe::data::EncodeLabel(samples[i].actual_total_time_ms));
  }
  return total / static_cast<double>(samples.size());
}

}  // namespace

Result RunTrainWorkload(const Args& args) {
  qpe::util::SetMaxThreads(kPoolThreads);
  PinThread(0, kBenchCpu);
  Checks checks;
  Result result;

  // Inputs from --seed, before any timing.
  Inputs in;
  in.pairs = MakePairs(StreamSeed(args.seed, 11), kPairPool, kMaxNodes);
  qpe::config::LhsSampler sampler(qpe::util::Rng(StreamSeed(args.seed, 12)));
  const std::vector<qpe::config::DbConfig> configs = sampler.Sample(kPerfConfigs);
  qpe::simdb::RunOptions run_options;
  run_options.instances_per_template = kPerfInstances;
  run_options.seed = StreamSeed(args.seed, 13);

  // Set-up: construct both models (the traced run builds two replicas) and
  // execute the workload on simdb. Repeated; setup_s is the median.
  SpanRecorder setup_rec;
  setup_rec.set_enabled(args.trace);
  std::vector<double> setup_seconds;
  std::unique_ptr<Trainer> trainers[2];
  const int setups = args.trace ? 1 : kSetupRepeats;
  size_t executed_queries = 0;
  for (int rep = 0; rep < setups; ++rep) {
    const double t0 = NowSeconds();
    trainers[0] = std::make_unique<Trainer>();
    if (args.trace) trainers[1] = std::make_unique<Trainer>();
    const qpe::simdb::TpchWorkload tpch(1.0);
    const qpe::simdb::TpcdsWorkload tpcds(1.0);
    const qpe::simdb::JobWorkload job;
    std::vector<qpe::data::OperatorSample> samples;
    executed_queries = 0;
    for (const qpe::simdb::BenchmarkWorkload* w :
         {static_cast<const qpe::simdb::BenchmarkWorkload*>(&tpch),
          static_cast<const qpe::simdb::BenchmarkWorkload*>(&tpcds),
          static_cast<const qpe::simdb::BenchmarkWorkload*>(&job)}) {
      const std::vector<qpe::simdb::ExecutedQuery> executed =
          ExecuteWorkload(*w, configs, run_options, &setup_rec);
      std::vector<qpe::data::OperatorSample> scans = qpe::data::ExtractOperatorSamples(
          executed, w->GetCatalog(), qpe::plan::OperatorGroup::kScan);
      samples.insert(samples.end(), std::make_move_iterator(scans.begin()),
                     std::make_move_iterator(scans.end()));
      executed_queries += executed.size();
    }
    in.perf = qpe::data::SplitOperatorSamples(std::move(samples),
                                              StreamSeed(args.seed, 14));
    setup_seconds.push_back(NowSeconds() - t0);
  }
  qpe::util::Rng order_rng(StreamSeed(args.seed, 15));
  in.perf_order = order_rng.Permutation(static_cast<int>(in.perf.train.size()));
  checks.Expect(in.perf.train.size() >= static_cast<size_t>(kPerfBatch),
                "too few operator samples");

  // --- Timed rounds (untraced) or the alternating replay (traced) --------------
  SpanRecorder recorders[2];
  recorders[1].set_enabled(true);
  std::vector<double> round_ms;
  double pass_seconds[2] = {0, 0};
  size_t rounds = 0;
  const double start = NowSeconds();
  const double end = start + args.seconds;
  if (!args.trace) {
    while (NowSeconds() < end) {
      const double t0 = NowSeconds();
      checks.Expect(RunRound(in, rounds, trainers[0].get(), &recorders[0]),
                    "Smatch label outside [0, 1]");
      round_ms.push_back((NowSeconds() - t0) * 1e3);
      ++rounds;
    }
  } else {
    constexpr size_t kChunk = 4;  // rounds per alternation
    while (NowSeconds() < end) {
      for (int order = 0; order < 2; ++order) {
        const int side = static_cast<int>((rounds / kChunk + order) % 2);
        const double t0 = NowSeconds();
        for (size_t r = rounds; r < rounds + kChunk; ++r) {
          checks.Expect(RunRound(in, r, trainers[side].get(), &recorders[side]),
                        "Smatch label outside [0, 1]");
        }
        pass_seconds[side] += NowSeconds() - t0;
      }
      rounds += kChunk;
    }
  }
  const double window = NowSeconds() - start;
  result.attempted = rounds;

  // --- Correctness, after the window -----------------------------------------
  Trainer& trained = *trainers[0];
  trained.ppsr.SetTraining(false);
  trained.perf.SetTraining(false);
  for (int i = 0; i < 16; ++i) {
    const PlanNode& p = *in.pairs[i].left;
    checks.Expect(qpe::smatch::Score(p, p).f1 == 1.0, "identical pair scores 1.0");
  }
  for (const Pair& p : MakePairs(StreamSeed(args.seed, 16), kSmallPairs, 10)) {
    const double hill = qpe::smatch::Score(*p.left, *p.right).f1;
    const double exact = qpe::smatch::ScoreExact(*p.left, *p.right).f1;
    checks.Expect(hill <= exact + 1e-12 && hill >= 0 && exact <= 1,
                  "hill-climbing Smatch <= ScoreExact, both in [0, 1]");
  }
  std::vector<qpe::data::PlanPair> held_out;
  for (Pair& p : MakePairs(StreamSeed(args.seed, 17), kHeldOutPairs, kMaxNodes)) {
    qpe::data::PlanPair pp;
    pp.smatch = qpe::smatch::Score(*p.left, *p.right).f1;
    pp.left = std::move(p.left);
    pp.right = std::move(p.right);
    held_out.push_back(std::move(pp));
  }
  const double label_mean = trained.label_sum / std::max<uint64_t>(trained.labels, 1);
  double mean_mae = 0;
  for (const auto& p : held_out) mean_mae += std::fabs(p.smatch - label_mean);
  mean_mae /= static_cast<double>(held_out.size());
  const double ppsr_mae = qpe::encoder::EvaluatePpsrMae(trained.ppsr, held_out);
  checks.Expect(ppsr_mae < mean_mae, "PPSR held-out MAE " + std::to_string(ppsr_mae) +
                                         " below the mean predictor's " +
                                         std::to_string(mean_mae));
  // The performance encoder is judged in the space its loss is computed in
  // (the log-encoded time label): its error in milliseconds is dominated by
  // the few longest queries and, this early in training, swings above the
  // mean predictor's on some round counts and below it on others.
  double encoded_mean = 0;
  for (const auto& s : in.perf.train) {
    encoded_mean += qpe::data::EncodeLabel(s.actual_total_time_ms);
  }
  encoded_mean /= static_cast<double>(std::max<size_t>(in.perf.train.size(), 1));
  double perf_mean_mae = 0;
  for (const auto& s : in.perf.test) {
    perf_mean_mae +=
        std::fabs(qpe::data::EncodeLabel(s.actual_total_time_ms) - encoded_mean);
  }
  perf_mean_mae /= static_cast<double>(std::max<size_t>(in.perf.test.size(), 1));
  const double perf_mae = EncodedTimeMae(trained.perf, in.perf.test);
  checks.Expect(!in.perf.test.empty() && perf_mae < perf_mean_mae,
                "perf encoder held-out MAE " + std::to_string(perf_mae) +
                    " (encoded time label) below the mean predictor's " +
                    std::to_string(perf_mean_mae));

  PrintStamp("threads", std::to_string(kPoolThreads));
  PrintStamp("pairs_per_round", std::to_string(kPairsPerRound));
  PrintStamp("perf_samples_per_step", std::to_string(kPerfBatch));
  PrintStamp("executed_queries", std::to_string(executed_queries));
  PrintStamp("perf_train_samples", std::to_string(in.perf.train.size()));
  PrintStamp("rounds", std::to_string(rounds));
  PrintStamp("skipped_steps", std::to_string(trained.skipped_steps));
  PrintStamp("ppsr_heldout_mae", std::to_string(ppsr_mae) + " (mean predictor " +
                                     std::to_string(mean_mae) + ")");
  PrintStamp("perf_heldout_mae_encoded", std::to_string(perf_mae) + " (mean predictor " +
                                             std::to_string(perf_mean_mae) + ")");
  PrintStamp("perf_heldout_mae_ms (reference only)",
             std::to_string(qpe::encoder::EvaluatePerfMaeMs(trained.perf, in.perf.test)));
  result.correct = checks.ok();

  if (!args.trace) {
    result.metrics = {
        {"setup_s", Median(setup_seconds), "s"},
        {"plans_per_s", 2.0 * kPairsPerRound * static_cast<double>(rounds) / window,
         "1/s"},
        {"op_p50_ms", Quantile(round_ms, 0.50), "ms"},
        {"op_p95_ms", Quantile(round_ms, 0.95), "ms"},
        {"peak_rss_mib", static_cast<double>(qpe::nn::PeakRssBytes()) / (1024.0 * 1024.0),
         "MiB"},
    };
    return result;
  }

  const SpanRecorder& rec = recorders[1];
  auto totals = rec.Totals();
  for (const auto& [name, t] : setup_rec.Totals()) totals[name] = t;
  auto ms = [&](const char* name, bool self) {
    const auto it = totals.find(name);
    if (it == totals.end()) return 0.0;
    return (self ? it->second.self_ns : it->second.inclusive_ns) * 1e-6;
  };
  const double steps = static_cast<double>(std::max<uint64_t>(totals["round"].count, 1));
  const double pairs = steps * kPairsPerRound;
  const std::string table =
      rec.SelfTimeTable("round") + setup_rec.SelfTimeTable("simdb.query");
  const std::string base = args.work_dir + "/" + args.workload + "_seed" +
                           std::to_string(args.seed);
  checks.Expect(rec.WriteSpans(base + ".spans.jsonl") &&
                    setup_rec.WriteSpans(base + ".setup_spans.jsonl"),
                "write span files");
  std::ofstream(base + ".layers.txt") << table;
  std::cout << table;
  PrintStamp("span_file", base + ".spans.jsonl");
  result.metrics = {
      {"smatch.flatten_us", 1e3 * ms("smatch.flatten", true) / (2 * pairs), "us"},
      {"smatch.score_ms", ms("smatch.score", true) / pairs, "ms"},
      {"ppsr.forward_ms", ms("ppsr.forward", true) / steps, "ms"},
      {"ppsr.backward_ms", ms("ppsr.grad_step", true) / steps, "ms"},
      {"optimizer.step_ms", ms("optimizer.step", true) / steps, "ms"},
      {"perf.forward_ms", ms("perf.forward", true) / steps, "ms"},
      {"perf.backward_ms", ms("perf.grad_step", true) / steps, "ms"},
      {"simdb.run_us",
       1e3 * ms("simdb.run", true) /
           static_cast<double>(std::max<uint64_t>(totals["simdb.run"].count, 1)),
       "us"},
      {"train.label_pairs_per_s", pairs / (ms("smatch.label", false) * 1e-3), "1/s"},
      {"train.train_pairs_per_s", pairs / (ms("ppsr.step", false) * 1e-3), "1/s"},
      {"train.perf_samples_per_s", steps * kPerfBatch / (ms("perf.step", false) * 1e-3),
       "1/s"},
      {"trace.overhead_pct",
       pass_seconds[0] > 0 ? 100.0 * (pass_seconds[1] - pass_seconds[0]) / pass_seconds[0]
                           : 0,
       "%"},
  };
  result.correct = checks.ok();
  return result;
}

}  // namespace sysbench
