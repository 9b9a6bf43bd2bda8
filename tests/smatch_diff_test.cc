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

// Independent exact oracle for small plans: enumerates every injective
// partial mapping of left onto right nodes and scores each one directly —
// instance matches of the mapped nodes plus one per left edge (p, c) whose
// image (m[p], m[c]) is a right edge, duplicates per copy and self-loops
// once. No pruning and no edge attribution, so it shares no logic with
// ExactSearch.
int BruteForceMatched(const FlatPlan& left, const FlatPlan& right) {
  const int nl = static_cast<int>(left.types.size());
  const int nr = static_cast<int>(right.types.size());
  auto valid = [](const std::pair<int, int>& e, int n) {
    return e.first >= 0 && e.first < n && e.second >= 0 && e.second < n;
  };
  std::vector<uint8_t> right_edge(static_cast<size_t>(nr) * nr, 0);
  for (const auto& e : right.edges) {
    if (valid(e, nr)) {
      right_edge[static_cast<size_t>(e.first) * nr + e.second] = 1;
    }
  }
  std::vector<int> m(nl, -1);
  std::vector<uint8_t> used(nr, 0);
  int best = 0;
  auto score = [&]() {
    int total = 0;
    for (int i = 0; i < nl; ++i) {
      if (m[i] < 0) continue;
      const OperatorType& a = left.types[i];
      const OperatorType& b = right.types[m[i]];
      total += (a.level1 == b.level1) + (a.level2 == b.level2) +
               (a.level3 == b.level3);
    }
    for (const auto& e : left.edges) {
      if (!valid(e, nl)) continue;
      const int a = m[e.first], b = m[e.second];
      if (a >= 0 && b >= 0) {
        total += right_edge[static_cast<size_t>(a) * nr + b];
      }
    }
    return total;
  };
  auto dfs = [&](auto&& self, int i) -> void {
    if (i == nl) {
      best = std::max(best, score());
      return;
    }
    m[i] = -1;
    self(self, i + 1);
    for (int j = 0; j < nr; ++j) {
      if (used[j]) continue;
      used[j] = 1;
      m[i] = j;
      self(self, i + 1);
      used[j] = 0;
    }
    m[i] = -1;
  };
  dfs(dfs, 0);
  return best;
}

// A random plan tree of at most max_nodes nodes, flattened, with its node
// indices shuffled: every edge is still parent -> child, but a parent's
// index may now follow its child's.
FlatPlan ShuffledTreePlan(data::RandomPlanGenerator* generator,
                          util::Rng* rng) {
  const FlatPlan tree = Flatten(*generator->Generate());
  const int n = static_cast<int>(tree.types.size());
  const std::vector<int> perm = rng->Permutation(n);
  FlatPlan out;
  out.types.resize(n);
  for (int i = 0; i < n; ++i) out.types[perm[i]] = tree.types[i];
  for (const auto& [p, c] : tree.edges) {
    out.edges.emplace_back(perm[p], perm[c]);
  }
  return out;
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
      // The legacy exact search skipped self-loops and edges into earlier
      // nodes, so the exact score is checked against enumeration instead.
      EXPECT_EQ(ScoreExact(a, b).matched_triples, BruteForceMatched(a, b));
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
  // Hand-broken plans (self-loops, cycles, parents after children): the
  // legacy exact search undercounted these, so enumeration is the oracle.
  util::Rng rng(18);
  for (int trial = 0; trial < 60; ++trial) {
    const FlatPlan a = RandomFlatPlan(&rng, rng.UniformInt(1, 8), rng.UniformInt(0, 10));
    const FlatPlan b = RandomFlatPlan(&rng, rng.UniformInt(1, 8), rng.UniformInt(0, 10));
    EXPECT_EQ(ScoreExact(a, b).matched_triples, BruteForceMatched(a, b));
  }
}

// The smallest plan that is not in preorder: two nodes and the one edge
// (1, 0). Scored against itself, every triple matches. The exact search
// once counted an edge only when its parent index came first, so it found
// 6 of the 7 triples (F1 0.857) while hill climbing found all 7.
TEST(SmatchDiffTest, ExactCountsEdgesIntoEarlierNodes) {
  const FlatPlan plan{{OperatorType(2, 1, 0), OperatorType(3, 1, 1)},
                      {{1, 0}}};
  const SmatchScore exact = ScoreExact(plan, plan);
  EXPECT_EQ(exact.matched_triples, 7);
  EXPECT_DOUBLE_EQ(exact.f1, 1.0);
  EXPECT_DOUBLE_EQ(Score(plan, plan).f1, 1.0);
  const FlatPlan self_loop{{OperatorType(1, 0, 0)}, {{0, 0}}};
  EXPECT_DOUBLE_EQ(ScoreExact(self_loop, self_loop).f1, 1.0);
}

// Exact search is an upper bound for hill climbing on valid plans whatever
// their node order, and equals enumeration: 500 pairs of shuffled trees of
// at most 9 nodes.
TEST(SmatchDiffTest, ExactBoundsHillClimbOnShuffledPlans) {
  util::Rng rng(19);
  data::CorpusOptions corpus;
  corpus.min_nodes = 1;
  corpus.max_nodes = 9;
  data::RandomPlanGenerator generator(rng.Fork(), corpus);
  int shuffled = 0;
  for (int trial = 0; trial < 500; ++trial) {
    FlatPlan a = ShuffledTreePlan(&generator, &rng);
    FlatPlan b = ShuffledTreePlan(&generator, &rng);
    if (a.types.size() > 9 || b.types.size() > 9) continue;
    for (const auto& [p, c] : a.edges) shuffled += p > c;
    const int exact = ScoreExact(a, b).matched_triples;
    EXPECT_GE(exact, Score(a, b).matched_triples) << "trial " << trial;
    if (a.types.size() * b.types.size() <= 42) {
      EXPECT_EQ(exact, BruteForceMatched(a, b)) << "trial " << trial;
    }
  }
  EXPECT_GT(shuffled, 500);
}

}  // namespace
}  // namespace qpe::smatch
