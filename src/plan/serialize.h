#ifndef QPE_PLAN_SERIALIZE_H_
#define QPE_PLAN_SERIALIZE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "plan/plan_node.h"
#include "util/status.h"

namespace qpe::plan {

// Plan <-> text round trip. Format is a compact s-expression; one node is
//   (op "Scan-Seq-NIL" :rel lineitem :plan_rows 6000 ... (op ...) (op ...))
// Only non-default properties are emitted. Used for dataset caching, golden
// files in tests, and the examples.

std::string SerializePlanNode(const PlanNode& node);
std::string SerializePlan(const Plan& plan);

// Deepest node nesting the parsers accept (the root is depth 1). The parse
// itself keeps an explicit stack, but deeper trees would overflow the
// recursive consumers downstream (linearization, ~PlanNode), so a hostile
// text nested past this is rejected like any other malformed input.
inline constexpr int kMaxPlanNestingDepth = 1024;

// Checked parsers: on malformed input the Status names the reason and the
// byte offset of the first error (e.g. "unknown property 'bogus' at offset
// 42"), so a corrupt corpus line is diagnosable instead of a bare nullopt.
util::StatusOr<std::unique_ptr<PlanNode>> ParsePlanNodeChecked(
    std::string_view text);
util::StatusOr<Plan> ParsePlanChecked(std::string_view text);

// Legacy wrappers: nullptr / nullopt on malformed input, diagnostics dropped.
std::unique_ptr<PlanNode> ParsePlanNode(std::string_view text);
std::optional<Plan> ParsePlan(std::string_view text);

}  // namespace qpe::plan

#endif  // QPE_PLAN_SERIALIZE_H_
