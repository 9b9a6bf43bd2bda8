// Differential test of the plan-text parser (plan/serialize.cc) against the
// recursive-descent parser it replaced (legacy_plan_parser.cc): both must
// accept and reject the same texts with the same error string, and build
// trees whose operator types, relations and property bits are identical.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "config/lhs_sampler.h"
#include "data/plan_corpus.h"
#include "gtest/gtest.h"
#include "legacy_plan_parser.h"
#include "plan/plan_node.h"
#include "plan/serialize.h"
#include "simdb/planner.h"
#include "simdb/workloads.h"
#include "util/fuzz.h"
#include "util/rng.h"

namespace qpe::plan {
namespace {

// Every TPC-H, TPC-DS and JOB template at two instantiations, each planned
// under four sampled knob configurations (the serving benchmark's pool).
std::vector<std::string> TemplatePool() {
  util::Rng rng(1);
  config::LhsSampler sampler(rng.Fork());
  const std::vector<config::DbConfig> configs = sampler.Sample(4);
  const simdb::TpchWorkload tpch(1.0);
  const simdb::TpcdsWorkload tpcds(1.0);
  const simdb::JobWorkload job;
  const simdb::BenchmarkWorkload* workloads[] = {&tpch, &tpcds, &job};
  std::vector<std::string> texts;
  for (const simdb::BenchmarkWorkload* w : workloads) {
    for (int t = 0; t < w->NumTemplates(); ++t) {
      for (int inst = 0; inst < 2; ++inst) {
        const simdb::QuerySpec spec = w->Instantiate(t, &rng);
        for (const config::DbConfig& config : configs) {
          simdb::Planner planner(&w->GetCatalog(), &config);
          texts.push_back(SerializePlanNode(*planner.PlanQuery(spec).root));
        }
      }
    }
  }
  return texts;
}

std::vector<std::string> RandomCorpus(int n) {
  data::RandomPlanGenerator generator(util::Rng(7));
  std::vector<std::string> texts;
  for (int i = 0; i < n; ++i) {
    texts.push_back(SerializePlanNode(*generator.Generate()));
  }
  return texts;
}

// Iterative walk; fuzzed texts may nest deeper than gtest output should.
void ExpectSameTree(const PlanNode& fast, const PlanNode& oracle,
                    const std::string& text) {
  std::vector<std::pair<const PlanNode*, const PlanNode*>> stack = {
      {&fast, &oracle}};
  while (!stack.empty()) {
    const auto [a, b] = stack.back();
    stack.pop_back();
    ASSERT_EQ(a->type(), b->type()) << text;
    ASSERT_EQ(a->relations(), b->relations()) << text;
    ASSERT_EQ(legacy::PropertyBits(a->props()),
              legacy::PropertyBits(b->props()))
        << text;
    ASSERT_EQ(a->children().size(), b->children().size()) << text;
    for (size_t i = 0; i < a->children().size(); ++i) {
      stack.emplace_back(a->children()[i].get(), b->children()[i].get());
    }
  }
  EXPECT_EQ(SerializePlanNode(fast), SerializePlanNode(oracle)) << text;
}

// Returns whether the oracle accepted `text`.
bool ExpectNodeParsersAgree(const std::string& text) {
  const auto fast = ParsePlanNodeChecked(text);
  const auto oracle = legacy::ParsePlanNodeChecked(text);
  EXPECT_EQ(fast.ok(), oracle.ok()) << text;
  if (!fast.ok() || !oracle.ok()) {
    EXPECT_EQ(fast.status().ToString(), oracle.status().ToString()) << text;
    return oracle.ok();
  }
  ExpectSameTree(**fast, **oracle, text);
  return true;
}

bool ExpectPlanParsersAgree(const std::string& text) {
  const auto fast = ParsePlanChecked(text);
  const auto oracle = legacy::ParsePlanChecked(text);
  EXPECT_EQ(fast.ok(), oracle.ok()) << text;
  if (!fast.ok() || !oracle.ok()) {
    EXPECT_EQ(fast.status().ToString(), oracle.status().ToString()) << text;
    return oracle.ok();
  }
  EXPECT_EQ(fast->benchmark, oracle->benchmark) << text;
  EXPECT_EQ(fast->template_id, oracle->template_id) << text;
  EXPECT_EQ(fast->cluster_id, oracle->cluster_id) << text;
  EXPECT_EQ(fast->root == nullptr, oracle->root == nullptr) << text;
  if (fast->root && oracle->root) ExpectSameTree(*fast->root, *oracle->root, text);
  return true;
}

std::string WrapPlan(const std::string& node_text) {
  return "(plan :benchmark tpch :template Q5 :cluster 3 " + node_text + ")";
}

TEST(PlanParserDiffTest, TemplatePoolAgrees) {
  const std::vector<std::string> pool = TemplatePool();
  ASSERT_EQ(pool.size(), 1560u);
  for (const std::string& text : pool) {
    EXPECT_TRUE(ExpectNodeParsersAgree(text));
    EXPECT_TRUE(ExpectPlanParsersAgree(WrapPlan(text)));
  }
}

TEST(PlanParserDiffTest, RandomCorpusAgrees) {
  for (const std::string& text : RandomCorpus(300)) {
    EXPECT_TRUE(ExpectNodeParsersAgree(text));
  }
}

TEST(PlanParserDiffTest, FuzzedTextsAgree) {
  std::vector<std::string> seeds = RandomCorpus(20);
  const std::vector<std::string> pool = TemplatePool();
  for (size_t i = 0; i < pool.size(); i += 97) seeds.push_back(pool[i]);
  util::Rng rng(2024);
  const int iters = util::FuzzIterationsFromEnv(3000);
  int accepted = 0;
  for (int it = 0; it < iters; ++it) {
    const std::string& seed = seeds[static_cast<size_t>(it) % seeds.size()];
    const int rounds = 1 + it % 6;
    const std::string mutated = util::MutateBytes(seed, &rng, rounds);
    accepted += ExpectNodeParsersAgree(mutated) ? 1 : 0;
    ExpectPlanParsersAgree(WrapPlan(mutated));
    ExpectPlanParsersAgree(util::MutateBytes(WrapPlan(seed), &rng, rounds));
  }
  // The mutations must exercise both verdicts to mean anything.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, iters);
}

TEST(PlanParserDiffTest, NumberEdgeCasesAreBitIdentical) {
  const char* const kValues[] = {
      "+1", "0x1p3", "-0x1.8p1", "0X10", "1e999", "-1e999", "1e-400",
      "12abc", "abc", "", "-", "+", ".", "1e", "1e+", ".5", "5.", "-0",
      "4.9406564584124654e-324", "2.2250738585072009e-308",
      "2.2250738585072014e-308", "1.7976931348623157e308",
      "1.7976931348623159e308", "0.1", "123456789012345678901234567890",
      "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "infx", "nanq",
      "1_000", "1,5", "0001", "1e0001", "9007199254740993", "3.",
      "-.5e-3", "1E5", "\x01", "1\x7f"};
  for (const char* value : kValues) {
    // Double- and bool-typed fields only: an int or enum field cast from
    // nan or inf is undefined behaviour in either parser.
    for (const char* key : {"plan_rows", "has_filter", "actual_total_time_ms"}) {
      const std::string text = std::string("(op \"Sort\" :") + key + " " +
                               value + " (op \"Scan-Seq\" :rel t :" + key +
                               " " + value + "))";
      EXPECT_TRUE(ExpectNodeParsersAgree(text)) << text;
    }
  }
  // An embedded NUL ends strtod's view of a token but not the token.
  EXPECT_TRUE(ExpectNodeParsersAgree(
      std::string("(op \"Sort\" :plan_rows 12") + '\0' + "34)"));
}

TEST(PlanParserDiffTest, HandWrittenTextsAgree) {
  const char* const kTexts[] = {
      "", " ", "(", ")", "(op", "(op)", "(op \"Sort\"", "(op \"Sort\")",
      "(op Sort)", "(opx \"Sort\")", "(notop \"Sort\")", "( op \"Sort\" )",
      "\t(\nop\v\"Sort\"\f)\r", "(op \"Sort\" :bogus_prop 3)",
      "(op \"Sort\" : 3)", "(op \"Sort\" :)", "(op \"Sort\" :rel)",
      "(op \"Sort\" :rel a :rel b :rel)", "(op \"Sort\" :plan_rows)",
      "(op \"Sort\" :plan_rows (op \"Scan\"))", "(op \"Sort\" x)",
      "(op \"Sort\" \"x\")", "(op \"A-B-C-D\")", "(op \"Join--Left\")",
      "(op \"-\")", "(op \"Scan-Seq-\")", "(op \"Bogus-Seq-Left\")",
      "(op \"Sort)", "(op \"Sort\" (op \"Scan\") trailing",
      "(op \"Sort\") trailing", "(op \"Sort\" (op \"Scan\" (op \"Hash\")))",
      "(op \"Sort\" :total_cost 5 :plan_rows 1 :actual_loops 2)",
      "(op \"Sort\" :plan_rows 1 :plan_rows 2)"};
  for (const char* text : kTexts) ExpectNodeParsersAgree(text);
  const char* const kPlans[] = {
      "", "(", "(plan", "(plan)", "(plan )", "(plann)", "(plan x)",
      "(plan :benchmark - :template - :cluster -1)",
      "(plan :cluster 12x)", "(plan :bogus 1)", "(plan :benchmark)",
      "(plan (op \"Sort\") (op \"Scan\"))", "(plan (op \"Sort\")",
      "(plan :cluster 0 (op \"Sort\" :bogus 1))"};
  for (const char* text : kPlans) ExpectPlanParsersAgree(text);
}

}  // namespace
}  // namespace qpe::plan
