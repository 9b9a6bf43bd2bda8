#ifndef QPE_TESTS_LEGACY_PLAN_PARSER_H_
#define QPE_TESTS_LEGACY_PLAN_PARSER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plan/plan_node.h"
#include "util/status.h"

// The recursive-descent plan-text parser that plan/serialize.cc used before
// it became a single iterative string_view scanner, kept verbatim as the
// test oracle for the differential test (plan_parser_diff_test.cc). It
// builds a std::string per token, reads numbers with strtod, finds property
// keys by strcmp over its own copy of the property table, and recurses once
// per nesting level — so it must only see texts of modest depth.
namespace qpe::plan::legacy {

util::StatusOr<std::unique_ptr<PlanNode>> ParsePlanNodeChecked(
    const std::string& text);
util::StatusOr<Plan> ParsePlanChecked(const std::string& text);

// Every PlanProperties field as the legacy table reads it, bit-cast to
// uint64_t: two property bags are bitwise equal iff these vectors are.
std::vector<uint64_t> PropertyBits(const PlanProperties& props);

}  // namespace qpe::plan::legacy

#endif  // QPE_TESTS_LEGACY_PLAN_PARSER_H_
