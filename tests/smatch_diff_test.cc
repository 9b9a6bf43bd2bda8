// Differential test of the Smatch hill climber (smatch/smatch.cc) against
// the implementation it replaced (legacy_smatch.cc): for every input both
// must find the same matched-triple count, so every score field, f1
// included, is bit-identical. The inputs cover the corpus the PPSR labels
// come from, large plans, hand-broken FlatPlans (self-loops, duplicate
// edges, two parents, cycles), empty and one-node sides, and a grid of
// SmatchOptions.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "data/plan_corpus.h"
#include "gtest/gtest.h"
#include "legacy_smatch.h"
#include "plan/plan_node.h"
#include "smatch/smatch.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qpe::smatch {
namespace {

using plan::OperatorType;

void ExpectSameScore(const SmatchScore& fast, const SmatchScore& oracle) {
  EXPECT_EQ(fast.matched_triples, oracle.matched_triples);
  EXPECT_EQ(fast.triples_left, oracle.triples_left);
  EXPECT_EQ(fast.triples_right, oracle.triples_right);
  EXPECT_EQ(std::bit_cast<uint64_t>(fast.f1), std::bit_cast<uint64_t>(oracle.f1));
  EXPECT_EQ(std::bit_cast<uint64_t>(fast.precision),
            std::bit_cast<uint64_t>(oracle.precision));
  EXPECT_EQ(std::bit_cast<uint64_t>(fast.recall),
            std::bit_cast<uint64_t>(oracle.recall));
}

using PlanPairs = std::vector<std::pair<FlatPlan, FlatPlan>>;

// Scores every pair with both implementations on the thread pool and
// returns the number whose matched-triple counts differ, so a failing case
// reports a count rather than thousands of lines.
int CountMismatches(const PlanPairs& pairs, const SmatchOptions& options = {}) {
  const int n = static_cast<int>(pairs.size());
  std::vector<SmatchScore> fast(n), oracle(n);
  util::ParallelRun(n, [&](int i) {
    fast[i] = Score(pairs[i].first, pairs[i].second, options);
    oracle[i] = legacy::Score(pairs[i].first, pairs[i].second, options);
  });
  int mismatches = 0;
  for (int i = 0; i < n; ++i) {
    if (fast[i].matched_triples == oracle[i].matched_triples) {
      ExpectSameScore(fast[i], oracle[i]);
      continue;
    }
    ++mismatches;
    ADD_FAILURE() << "matched_triples " << fast[i].matched_triples
                  << " vs legacy " << oracle[i].matched_triples << " ("
                  << pairs[i].first.types.size() << " x "
                  << pairs[i].second.types.size() << " nodes, restarts "
                  << options.restarts << ", max_passes " << options.max_passes
                  << ", seed " << options.seed << ")";
  }
  return mismatches;
}

// Corpus pairs as the PPSR pretraining set builds them: half a plan and a
// structural mutation of it, half two random plans.
PlanPairs CorpusPairs(uint64_t seed, int count, int max_nodes) {
  util::Rng rng(seed);
  data::CorpusOptions corpus;
  corpus.max_nodes = max_nodes;
  data::RandomPlanGenerator generator(rng.Fork(), corpus);
  PlanPairs pairs;
  for (int i = 0; i < count; ++i) {
    const auto left = generator.Generate();
    const auto right = i % 2 == 0
                           ? generator.Mutate(*left, rng.Uniform(0.05, 0.5))
                           : generator.Generate();
    pairs.emplace_back(Flatten(*left), Flatten(*right));
  }
  return pairs;
}

// A FlatPlan with `nodes` nodes over a small type pool (so many instance
// triples tie) and `edges` random edges: self-loops, duplicate edges, nodes
// with several parents and cycles all occur.
FlatPlan RandomFlatPlan(util::Rng* rng, int nodes, int edges) {
  FlatPlan flat;
  for (int i = 0; i < nodes; ++i) {
    flat.types.emplace_back(static_cast<uint8_t>(rng->UniformInt(0, 3)),
                            static_cast<uint8_t>(rng->UniformInt(0, 2)),
                            static_cast<uint8_t>(rng->UniformInt(0, 1)));
  }
  for (int e = 0; e < edges && nodes > 0; ++e) {
    flat.edges.emplace_back(static_cast<int>(rng->UniformInt(0, nodes - 1)),
                            static_cast<int>(rng->UniformInt(0, nodes - 1)));
  }
  return flat;
}

TEST(SmatchDiffTest, CorpusPairsAgree) {
  EXPECT_EQ(CountMismatches(CorpusPairs(11, 4000, 24)), 0);
}

TEST(SmatchDiffTest, LargePairsAgree) {
  const PlanPairs pairs = CorpusPairs(12, 36, 200);
  size_t largest = 0;
  for (const auto& [a, b] : pairs) {
    largest = std::max({largest, a.types.size(), b.types.size()});
  }
  EXPECT_GT(largest, 100u);
  EXPECT_EQ(CountMismatches(pairs), 0);
}

TEST(SmatchDiffTest, FuzzedFlatPlansAgree) {
  util::Rng rng(13);
  PlanPairs pairs;
  for (int trial = 0; trial < 600; ++trial) {
    const int nl = static_cast<int>(rng.UniformInt(1, 14));
    const int nr = static_cast<int>(rng.UniformInt(1, 14));
    FlatPlan a = RandomFlatPlan(&rng, nl, rng.UniformInt(0, 2 * nl));
    FlatPlan b = RandomFlatPlan(&rng, nr, rng.UniformInt(0, 2 * nr));
    pairs.emplace_back(std::move(a), std::move(b));
  }
  EXPECT_EQ(CountMismatches(pairs), 0);
}

TEST(SmatchDiffTest, HandBuiltShapesAgree) {
  const OperatorType kSort(1, 0, 0), kJoin(2, 1, 0), kScan(3, 1, 1);
  FlatPlan self_loop{{kSort, kJoin, kScan}, {{0, 1}, {1, 1}, {1, 2}}};
  FlatPlan duplicate{{kSort, kJoin, kScan}, {{0, 1}, {0, 1}, {1, 2}, {1, 2}}};
  FlatPlan two_parents{{kSort, kJoin, kScan, kScan}, {{0, 2}, {1, 2}, {2, 3}}};
  FlatPlan cycle{{kJoin, kScan, kSort}, {{0, 1}, {1, 2}, {2, 0}}};
  FlatPlan two_cycle{{kJoin, kJoin}, {{0, 1}, {1, 0}, {1, 0}}};
  FlatPlan loops_only{{kScan, kScan}, {{0, 0}, {1, 1}, {0, 0}}};
  FlatPlan chain{{kSort, kJoin, kScan, kScan}, {{0, 1}, {1, 2}, {1, 3}}};
  const std::vector<FlatPlan> shapes = {self_loop, duplicate, two_parents,
                                        cycle,     two_cycle, loops_only,
                                        chain};
  PlanPairs pairs;
  for (const FlatPlan& a : shapes) {
    for (const FlatPlan& b : shapes) pairs.emplace_back(a, b);
  }
  for (int restarts : {1, 4}) {
    SmatchOptions options;
    options.restarts = restarts;
    EXPECT_EQ(CountMismatches(pairs, options), 0);
  }
}

TEST(SmatchDiffTest, EmptyAndOneNodeSidesAgree) {
  const FlatPlan empty;
  const FlatPlan one{{OperatorType(1, 0, 0)}, {}};
  const FlatPlan one_loop{{OperatorType(1, 0, 0)}, {{0, 0}}};
  const FlatPlan other{{OperatorType(2, 1, 0)}, {}};
  util::Rng rng(14);
  const FlatPlan many = RandomFlatPlan(&rng, 9, 12);
  const std::vector<FlatPlan> sides = {empty, one, one_loop, other, many};
  PlanPairs pairs;
  for (const FlatPlan& a : sides) {
    for (const FlatPlan& b : sides) {
      pairs.emplace_back(a, b);
      ExpectSameScore(ScoreExact(a, b), legacy::ScoreExact(a, b));
    }
  }
  EXPECT_EQ(CountMismatches(pairs), 0);
}

TEST(SmatchDiffTest, OptionsGridAgrees) {
  PlanPairs pairs = CorpusPairs(15, 24, 24);
  util::Rng rng(16);
  for (int i = 0; i < 8; ++i) {
    FlatPlan a = RandomFlatPlan(&rng, 10, 14);
    FlatPlan b = RandomFlatPlan(&rng, 12, 16);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  for (int restarts : {1, 4, 8}) {
    for (int max_passes : {1, 3, 50}) {
      for (uint64_t seed : {1ull, 1234ull, 987654321ull}) {
        SmatchOptions options;
        options.restarts = restarts;
        options.max_passes = max_passes;
        options.seed = seed;
        EXPECT_EQ(CountMismatches(pairs, options), 0);
      }
    }
  }
}

TEST(SmatchDiffTest, ExactAgreesOnSmallPlans) {
  int checked = 0;
  for (const auto& [a, b] : CorpusPairs(17, 60, 10)) {
    if (a.types.size() > 10 || b.types.size() > 10) continue;  // grown by Mutate
    ExpectSameScore(ScoreExact(a, b), legacy::ScoreExact(a, b));
    ++checked;
  }
  EXPECT_GT(checked, 40);
  util::Rng rng(18);
  for (int trial = 0; trial < 60; ++trial) {
    const FlatPlan a = RandomFlatPlan(&rng, rng.UniformInt(1, 8), rng.UniformInt(0, 10));
    const FlatPlan b = RandomFlatPlan(&rng, rng.UniformInt(1, 8), rng.UniformInt(0, 10));
    ExpectSameScore(ScoreExact(a, b), legacy::ScoreExact(a, b));
  }
}

}  // namespace
}  // namespace qpe::smatch
