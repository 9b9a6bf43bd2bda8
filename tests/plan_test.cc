#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "plan/linearize.h"
#include "plan/plan_node.h"
#include "plan/serialize.h"
#include "plan/taxonomy.h"
#include "util/rng.h"

namespace qpe::plan {
namespace {

OperatorType Op(const std::string& token) { return OperatorType::Parse(token); }

// Builds the running example from the paper's Figure 1 / Table 3 (TPC-H Q5
// shape): Filter(Sort(Aggregate(HashJoin(NestedLoop(...), ...)))).
std::unique_ptr<PlanNode> BuildPaperExample() {
  auto root = std::make_unique<PlanNode>(Op("Filter"));
  PlanNode* sort = root->AddChild(Op("Sort"));
  PlanNode* agg = sort->AddChild(Op("Aggregate"));
  PlanNode* hash_join = agg->AddChild(Op("Join-Hash"));
  PlanNode* nested1 = hash_join->AddChild(Op("Loop-Nested"));
  PlanNode* join2 = nested1->AddChild(Op("Join-Hash"));
  PlanNode* hash = join2->AddChild(Op("Hash"));
  PlanNode* nested2 = hash->AddChild(Op("Loop-Nested"));
  PlanNode* nested3 = nested2->AddChild(Op("Loop-Nested"));
  nested3->AddChild(Op("Scan-Index"));
  nested3->AddChild(Op("Scan-Seq"));
  nested2->AddChild(Op("Scan-Heap-Bitmap"));
  join2->AddChild(Op("Scan-Index-Bitmap"));
  nested1->AddChild(Op("Scan-Index"));
  hash_join->AddChild(Op("Scan-Seq"));
  return root;
}

TEST(TaxonomyTest, SpecialTokensExist) {
  const Taxonomy& tax = Taxonomy::Get();
  EXPECT_GE(tax.br_open(), 0);
  EXPECT_GE(tax.br_close(), 0);
  EXPECT_GE(tax.cls(), 0);
  EXPECT_GE(tax.sep(), 0);
  EXPECT_EQ(tax.Level1Name(0), "NIL");
  EXPECT_EQ(tax.Level2Name(0), "NIL");
  EXPECT_EQ(tax.Level3Name(0), "NIL");
}

TEST(TaxonomyTest, LookupRoundTrip) {
  const Taxonomy& tax = Taxonomy::Get();
  for (int i = 0; i < tax.Level1Count(); ++i) {
    EXPECT_EQ(tax.Level1Id(tax.Level1Name(i)), i);
  }
  for (int i = 0; i < tax.Level2Count(); ++i) {
    EXPECT_EQ(tax.Level2Id(tax.Level2Name(i)), i);
  }
  for (int i = 0; i < tax.Level3Count(); ++i) {
    EXPECT_EQ(tax.Level3Id(tax.Level3Name(i)), i);
  }
}

TEST(TaxonomyTest, UnknownNameMapsToReservedUnknownToken) {
  const Taxonomy& tax = Taxonomy::Get();
  // Lenient lookups resolve foreign names to the reserved UNKNOWN sub-type
  // (a real embedding row), never to a sentinel a consumer could index with.
  EXPECT_EQ(tax.Level1Id("NotAnOperator"), tax.unknown1());
  EXPECT_EQ(tax.Level2Id("NotAnOperator"), tax.unknown2());
  EXPECT_EQ(tax.Level3Id("NotAnOperator"), tax.unknown3());
  EXPECT_EQ(tax.Level1Name(tax.unknown1()), "UNKNOWN");
  // Strict lookups keep the detection capability.
  EXPECT_EQ(tax.FindLevel1("NotAnOperator"), -1);
  EXPECT_EQ(tax.FindLevel2("NotAnOperator"), -1);
  EXPECT_EQ(tax.FindLevel3("NotAnOperator"), -1);
  EXPECT_EQ(tax.FindLevel1("Scan"), tax.Level1Id("Scan"));
}

TEST(TaxonomyTest, OutOfRangeIdNamesAsUnknown) {
  const Taxonomy& tax = Taxonomy::Get();
  EXPECT_EQ(tax.Level1Name(-1), "UNKNOWN");
  EXPECT_EQ(tax.Level1Name(tax.Level1Count() + 40), "UNKNOWN");
  EXPECT_EQ(tax.Level2Name(255), "UNKNOWN");
  EXPECT_EQ(tax.Level3Name(255), "UNKNOWN");
}

TEST(OperatorTypeTest, LessMatchesFullStringOrder) {
  // operator< compares the three level names in place; it must order types
  // exactly as comparing their full hyphenated strings does. The sample
  // draws ids past every vocabulary (they name themselves UNKNOWN) and
  // covers the names that prefix others (Group/GroupAggregate,
  // Window/WindowAgg, Index/IndexOnly).
  const Taxonomy& tax = Taxonomy::Get();
  util::Rng rng(2024);
  std::vector<OperatorType> types;
  for (int i = 0; i < 2500; ++i) {
    types.emplace_back(
        static_cast<uint8_t>(rng.UniformInt(0, tax.Level1Count() + 4)),
        static_cast<uint8_t>(rng.UniformInt(0, tax.Level2Count() + 4)),
        static_cast<uint8_t>(rng.UniformInt(0, tax.Level3Count() + 4)));
  }
  std::vector<OperatorType> by_less = types;
  std::vector<OperatorType> by_string = types;
  std::stable_sort(by_less.begin(), by_less.end());
  std::stable_sort(by_string.begin(), by_string.end(),
                   [](const OperatorType& a, const OperatorType& b) {
                     return a.ToString(true) < b.ToString(true);
                   });
  for (size_t i = 0; i < types.size(); ++i) {
    ASSERT_EQ(by_less[i], by_string[i])
        << i << ": " << by_less[i].ToString(true) << " vs "
        << by_string[i].ToString(true);
  }
}

TEST(OperatorTypeTest, ParseHyphenated) {
  const OperatorType scan = Op("Scan-Heap-Bitmap");
  EXPECT_EQ(scan.ToString(), "Scan-Heap-Bitmap");
  const OperatorType join = Op("Join-Merge-Left");
  EXPECT_EQ(join.ToString(), "Join-Merge-Left");
}

TEST(OperatorTypeTest, MissingLevelsAreNil) {
  const OperatorType sort = Op("Sort");
  EXPECT_EQ(sort.level2, 0);
  EXPECT_EQ(sort.level3, 0);
  EXPECT_EQ(sort.ToString(), "Sort");
  EXPECT_EQ(sort.ToString(/*full=*/true), "Sort-NIL-NIL");
}

TEST(OperatorTypeTest, FullStringParseRoundTrip) {
  const OperatorType t = Op("Join-Merge-Left");
  EXPECT_EQ(OperatorType::Parse(t.ToString(true)), t);
}

TEST(OperatorTypeTest, GroupMapping) {
  EXPECT_EQ(GroupOf(Op("Scan-Seq")), OperatorGroup::kScan);
  EXPECT_EQ(GroupOf(Op("Scan-Heap-Bitmap")), OperatorGroup::kScan);
  EXPECT_EQ(GroupOf(Op("Join-Hash")), OperatorGroup::kJoin);
  EXPECT_EQ(GroupOf(Op("Join-Merge-Left")), OperatorGroup::kJoin);
  EXPECT_EQ(GroupOf(Op("Loop-Nested")), OperatorGroup::kJoin);
  EXPECT_EQ(GroupOf(Op("Sort")), OperatorGroup::kSort);
  EXPECT_EQ(GroupOf(Op("Aggregate-Hash")), OperatorGroup::kAggregate);
  EXPECT_EQ(GroupOf(Op("GroupAggregate")), OperatorGroup::kAggregate);
  EXPECT_EQ(GroupOf(Op("Limit")), OperatorGroup::kOther);
  EXPECT_EQ(GroupOf(Op("Materialize")), OperatorGroup::kOther);
}

TEST(PlanNodeTest, NumNodesAndDepth) {
  const auto plan = BuildPaperExample();
  EXPECT_EQ(plan->NumNodes(), 15);
  EXPECT_EQ(plan->Depth(), 10);
}

TEST(PlanNodeTest, CloneIsDeepAndEqualShape) {
  const auto plan = BuildPaperExample();
  const auto copy = plan->Clone();
  EXPECT_EQ(copy->NumNodes(), plan->NumNodes());
  EXPECT_EQ(ToBracketString(LinearizeDfsBracket(*copy)),
            ToBracketString(LinearizeDfsBracket(*plan)));
}

TEST(LinearizeTest, ClsAndSepDelimit) {
  const auto plan = BuildPaperExample();
  const auto tokens = LinearizeDfsBracket(*plan, /*add_cls_sep=*/true);
  const Taxonomy& tax = Taxonomy::Get();
  EXPECT_EQ(tokens.front().level1, tax.cls());
  EXPECT_EQ(tokens.back().level1, tax.sep());
}

TEST(LinearizeTest, BracketsBalance) {
  const auto plan = BuildPaperExample();
  const auto tokens = LinearizeDfsBracket(*plan);
  const Taxonomy& tax = Taxonomy::Get();
  int depth = 0;
  for (const auto& t : tokens) {
    if (t.level1 == tax.br_open()) ++depth;
    if (t.level1 == tax.br_close()) --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(LinearizeTest, TokenCountFormula) {
  // CLS + SEP + one token per node + 2 brackets per internal node.
  const auto plan = BuildPaperExample();
  const auto tokens = LinearizeDfsBracket(*plan);
  int internal = 0;
  plan->Visit([&](const PlanNode& n) { internal += !n.children().empty(); });
  EXPECT_EQ(static_cast<int>(tokens.size()), 2 + plan->NumNodes() + 2 * internal);
}

TEST(LinearizeTest, DeterministicUnderChildOrder) {
  // Children are sorted by typename, so insertion order must not matter.
  auto a = std::make_unique<PlanNode>(Op("Join-Hash"));
  a->AddChild(Op("Scan-Seq"));
  a->AddChild(Op("Scan-Index"));
  auto b = std::make_unique<PlanNode>(Op("Join-Hash"));
  b->AddChild(Op("Scan-Index"));
  b->AddChild(Op("Scan-Seq"));
  EXPECT_EQ(ToBracketString(LinearizeDfsBracket(*a)),
            ToBracketString(LinearizeDfsBracket(*b)));
}

TEST(LinearizeTest, BracketDisambiguatesWhereDfsDoesNot) {
  // Chain: A -> B -> C versus A with children B and C. Plain DFS gives the
  // same sequence; DFS-bracket distinguishes them.
  auto chain = std::make_unique<PlanNode>(Op("Sort"));
  chain->AddChild(Op("Aggregate"))->AddChild(Op("Scan-Seq"));
  auto fanout = std::make_unique<PlanNode>(Op("Sort"));
  fanout->AddChild(Op("Aggregate"));
  fanout->AddChild(Op("Scan-Seq"));

  const auto dfs_chain = LinearizeDfs(*chain);
  const auto dfs_fanout = LinearizeDfs(*fanout);
  ASSERT_EQ(dfs_chain.size(), dfs_fanout.size());
  bool same = true;
  for (size_t i = 0; i < dfs_chain.size(); ++i) {
    same = same && dfs_chain[i] == dfs_fanout[i];
  }
  EXPECT_TRUE(same);

  EXPECT_NE(ToBracketString(LinearizeDfsBracket(*chain)),
            ToBracketString(LinearizeDfsBracket(*fanout)));
}

TEST(LinearizeTest, BfsOrdersByLevel) {
  const auto plan = BuildPaperExample();
  const auto tokens = LinearizeBfs(*plan);
  EXPECT_EQ(static_cast<int>(tokens.size()), plan->NumNodes());
  EXPECT_EQ(tokens[0].ToString(), "Filter");
  EXPECT_EQ(tokens[1].ToString(), "Sort");
}

TEST(SerializeTest, NodeRoundTrip) {
  auto plan = BuildPaperExample();
  plan->props().plan_rows = 1234;
  plan->props().actual_total_time_ms = 56.5;
  plan->children()[0]->props().sort_method = SortMethod::kExternalMerge;
  const std::string text = SerializePlanNode(*plan);
  const auto parsed = ParsePlanNode(text);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->NumNodes(), plan->NumNodes());
  EXPECT_DOUBLE_EQ(parsed->props().plan_rows, 1234);
  EXPECT_DOUBLE_EQ(parsed->props().actual_total_time_ms, 56.5);
  EXPECT_EQ(parsed->children()[0]->props().sort_method,
            SortMethod::kExternalMerge);
  EXPECT_EQ(SerializePlanNode(*parsed), text);
}

TEST(SerializeTest, RelationsRoundTrip) {
  PlanNode scan(Op("Scan-Seq"));
  scan.AddRelation("lineitem");
  scan.AddRelation("orders");
  const auto parsed = ParsePlanNode(SerializePlanNode(scan));
  ASSERT_NE(parsed, nullptr);
  ASSERT_EQ(parsed->relations().size(), 2u);
  EXPECT_EQ(parsed->relations()[0], "lineitem");
  EXPECT_EQ(parsed->relations()[1], "orders");
}

TEST(SerializeTest, PlanMetadataRoundTrip) {
  Plan plan;
  plan.root = BuildPaperExample();
  plan.benchmark = "tpch";
  plan.template_id = "Q5";
  plan.cluster_id = 7;
  const auto parsed = ParsePlan(SerializePlan(plan));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->benchmark, "tpch");
  EXPECT_EQ(parsed->template_id, "Q5");
  EXPECT_EQ(parsed->cluster_id, 7);
  EXPECT_EQ(parsed->NumNodes(), 15);
}

TEST(SerializeTest, MalformedInputRejected) {
  EXPECT_EQ(ParsePlanNode("(op"), nullptr);
  EXPECT_EQ(ParsePlanNode("(notop \"Sort\")"), nullptr);
  EXPECT_EQ(ParsePlanNode("(op \"Sort\" :bogus_prop 3)"), nullptr);
  EXPECT_FALSE(ParsePlan("(op \"Sort\")").has_value());
}

// `depth` nested Sort nodes around one Scan leaf.
std::string NestedText(int depth) {
  std::string text;
  for (int i = 1; i < depth; ++i) text += "(op \"Sort-NIL-NIL\" ";
  text += "(op \"Scan-Seq-NIL\")";
  text.append(static_cast<size_t>(depth - 1), ')');
  return text;
}

TEST(SerializeTest, NestingAtDepthBoundIsAccepted) {
  const auto parsed = ParsePlanNodeChecked(NestedText(kMaxPlanNestingDepth));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)->Depth(), kMaxPlanNestingDepth);
  EXPECT_EQ(SerializePlanNode(**parsed), NestedText(kMaxPlanNestingDepth));
}

TEST(SerializeTest, NestingPastDepthBoundIsDataLossAtItsOffset) {
  const std::string text = NestedText(kMaxPlanNestingDepth + 1);
  const auto parsed = ParsePlanNodeChecked(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kDataLoss);
  // The '(' that opens the node one level too deep.
  const size_t offset = static_cast<size_t>(kMaxPlanNestingDepth) *
                        std::string("(op \"Sort-NIL-NIL\" ").size();
  EXPECT_EQ(text[offset], '(');
  EXPECT_EQ(parsed.status().message(),
            "plan node parse failed: plan nesting deeper than " +
                std::to_string(kMaxPlanNestingDepth) + " at offset " +
                std::to_string(offset));
  const auto plan = ParsePlanChecked("(plan " + text + ")");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), util::StatusCode::kDataLoss);
}

TEST(SerializeTest, HostileNestingIsRejectedWithoutRecursion) {
  // 30k unclosed levels (360 KB): enough to overflow a recursive parser.
  std::string text;
  for (int i = 0; i < 30000; ++i) text += "(op \"Sort\" ";
  EXPECT_EQ(ParsePlanNode(text), nullptr);
  EXPECT_FALSE(ParsePlan("(plan " + text).has_value());
}

}  // namespace
}  // namespace qpe::plan
