#include <memory>

#include "gtest/gtest.h"
#include "plan/plan_node.h"
#include "plan/taxonomy.h"
#include "smatch/smatch.h"
#include "util/rng.h"

namespace qpe::smatch {
namespace {

using plan::OperatorType;
using plan::PlanNode;

OperatorType Op(const std::string& token) { return OperatorType::Parse(token); }

std::unique_ptr<PlanNode> SmallPlanA() {
  auto root = std::make_unique<PlanNode>(Op("Sort"));
  PlanNode* join = root->AddChild(Op("Join-Hash"));
  join->AddChild(Op("Scan-Seq"));
  join->AddChild(Op("Scan-Index"));
  return root;
}

std::unique_ptr<PlanNode> SmallPlanB() {
  auto root = std::make_unique<PlanNode>(Op("Sort"));
  PlanNode* join = root->AddChild(Op("Join-Merge"));
  join->AddChild(Op("Scan-Seq"));
  join->AddChild(Op("Scan-Seq"));
  return root;
}

// Random tree over a small operator pool, for property sweeps.
std::unique_ptr<PlanNode> RandomTree(util::Rng* rng, int nodes) {
  static const char* kPool[] = {"Sort",       "Join-Hash", "Join-Merge",
                                "Loop-Nested", "Scan-Seq",  "Scan-Index",
                                "Aggregate-Hash", "Limit"};
  std::vector<PlanNode*> all;
  auto root = std::make_unique<PlanNode>(Op(kPool[rng->UniformInt(0, 7)]));
  all.push_back(root.get());
  for (int i = 1; i < nodes; ++i) {
    PlanNode* parent = all[rng->UniformInt(0, all.size() - 1)];
    all.push_back(parent->AddChild(Op(kPool[rng->UniformInt(0, 7)])));
  }
  return root;
}

TEST(SmatchTest, IdenticalPlansScoreOne) {
  const auto a = SmallPlanA();
  const auto b = a->Clone();
  const SmatchScore score = Score(*a, *b);
  EXPECT_DOUBLE_EQ(score.f1, 1.0);
  EXPECT_DOUBLE_EQ(score.precision, 1.0);
  EXPECT_DOUBLE_EQ(score.recall, 1.0);
}

TEST(SmatchTest, ScoreInUnitInterval) {
  const auto a = SmallPlanA();
  const auto b = SmallPlanB();
  const SmatchScore score = Score(*a, *b);
  EXPECT_GT(score.f1, 0.0);
  EXPECT_LT(score.f1, 1.0);
}

TEST(SmatchTest, CompletelyDifferentTypesStillMatchNilLevels) {
  // Two single-node plans with different L1 but both NIL L2/L3 share 2 of 3
  // instance triples.
  PlanNode a(Op("Sort"));
  PlanNode b(Op("Limit"));
  const SmatchScore score = Score(a, b);
  EXPECT_NEAR(score.f1, 2.0 / 3.0, 1e-9);
}

TEST(SmatchTest, SymmetricF1) {
  util::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const auto a = RandomTree(&rng, 8);
    const auto b = RandomTree(&rng, 11);
    const double ab = Score(*a, *b).f1;
    const double ba = Score(*b, *a).f1;
    EXPECT_NEAR(ab, ba, 1e-9);
  }
}

TEST(SmatchTest, PrecisionRecallSwapUnderArgumentSwap) {
  const auto a = SmallPlanA();
  auto b = SmallPlanA();
  b->AddChild(Op("Limit"));  // make sizes differ
  const SmatchScore ab = Score(*a, *b);
  const SmatchScore ba = Score(*b, *a);
  EXPECT_NEAR(ab.precision, ba.recall, 1e-9);
  EXPECT_NEAR(ab.recall, ba.precision, 1e-9);
}

TEST(SmatchTest, HillClimbMatchesExactOnSmallPlans) {
  util::Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const auto a = RandomTree(&rng, 2 + trial % 6);
    const auto b = RandomTree(&rng, 2 + (trial * 3) % 6);
    const SmatchScore approx = Score(*a, *b);
    const SmatchScore exact = ScoreExact(*a, *b);
    // Hill climbing is a lower bound and usually equals the optimum here.
    EXPECT_LE(approx.matched_triples, exact.matched_triples);
    EXPECT_GE(approx.matched_triples, exact.matched_triples - 1);
  }
}

TEST(SmatchTest, ExactIdentityIsPerfect) {
  const auto a = SmallPlanA();
  EXPECT_DOUBLE_EQ(ScoreExact(*a, *a->Clone()).f1, 1.0);
}

TEST(SmatchTest, SubtreeScoresHigherThanUnrelated) {
  // A plan vs. the same plan with a small addition should be more similar
  // than the plan vs. a structurally different plan.
  const auto base = SmallPlanA();
  auto extended = SmallPlanA();
  extended->AddChild(Op("Limit"));
  const double close = Score(*base, *extended).f1;
  const double far = Score(*base, *SmallPlanB()).f1;
  EXPECT_GT(close, far);
}

TEST(SmatchTest, FlattenCountsNodesAndEdges) {
  const auto a = SmallPlanA();
  const FlatPlan flat = Flatten(*a);
  EXPECT_EQ(flat.types.size(), 4u);
  EXPECT_EQ(flat.edges.size(), 3u);
  EXPECT_EQ(flat.NumTriples(), 15);
}

TEST(SmatchTest, DeterministicAcrossCalls) {
  util::Rng rng(5);
  const auto a = RandomTree(&rng, 20);
  const auto b = RandomTree(&rng, 20);
  const double s1 = Score(*a, *b).f1;
  const double s2 = Score(*a, *b).f1;
  EXPECT_DOUBLE_EQ(s1, s2);
}

TEST(SmatchTest, LargePlansComplete) {
  util::Rng rng(11);
  const auto a = RandomTree(&rng, 150);
  const auto b = RandomTree(&rng, 180);
  const SmatchScore score = Score(*a, *b);
  EXPECT_GT(score.f1, 0.0);
  EXPECT_LE(score.f1, 1.0);
}

TEST(SmatchTest, EmptyRightPlanGivesZero) {
  const auto a = SmallPlanA();
  FlatPlan empty;
  const SmatchScore score = Score(Flatten(*a), empty);
  EXPECT_DOUBLE_EQ(score.f1, 0.0);
}

TEST(SmatchTest, IgnoresEdgesOutsideThePlan) {
  const FlatPlan clean = Flatten(*SmallPlanA());
  const FlatPlan other = Flatten(*SmallPlanB());
  FlatPlan broken = clean;
  broken.edges.insert(broken.edges.end(), {{0, 99}, {-1, 2}, {1000003, 0}});
  EXPECT_EQ(Score(broken, other).matched_triples,
            Score(clean, other).matched_triples);
  EXPECT_EQ(Score(other, broken).matched_triples,
            Score(other, clean).matched_triples);
  EXPECT_EQ(ScoreExact(broken, other).matched_triples,
            ScoreExact(clean, other).matched_triples);
  EXPECT_EQ(ScoreExact(other, broken).matched_triples,
            ScoreExact(other, clean).matched_triples);
  EXPECT_EQ(Score(broken, other).triples_left, clean.NumTriples() + 3);
}

// Property sweep: restarts should never decrease the score.
class SmatchRestartTest : public ::testing::TestWithParam<int> {};

TEST_P(SmatchRestartTest, MoreRestartsNeverWorse) {
  util::Rng rng(31 + GetParam());
  const auto a = RandomTree(&rng, 12);
  const auto b = RandomTree(&rng, 14);
  SmatchOptions one;
  one.restarts = 1;
  SmatchOptions many;
  many.restarts = 8;
  EXPECT_GE(Score(*a, *b, many).matched_triples,
            Score(*a, *b, one).matched_triples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmatchRestartTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace qpe::smatch
