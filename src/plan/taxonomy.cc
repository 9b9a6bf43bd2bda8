#include "plan/taxonomy.h"

#include <sstream>

namespace qpe::plan {

Taxonomy::Taxonomy() {
  // Level 1 (paper Table 2 plus Filter from Figure 1 and the four specials).
  level1_ = {"NIL",        "Aggregate", "Append",    "Count",     "Delete",
             "Enum",       "Filter",    "Gather",    "Group",     "GroupAggregate",
             "Hash",       "Insert",    "Intersect", "Join",      "Limit",
             "LockRows",   "Loop",      "Materialize", "ModifyTable", "Network",
             "Result",     "Scan",      "Sequence",  "SetOp",     "Sort",
             "Union",      "Unique",    "Update",    "Window",    "WindowAgg",
             "BR_OPEN",    "BR_CLOSE",  "CLS",       "SEP",       "UNKNOWN"};
  level2_ = {"NIL",   "And",      "CTE",    "Except", "Exists", "Foreign",
             "Hash",  "Heap",     "Index",  "IndexOnly", "LoopHash", "Merge",
             "Nested", "Or",      "Query",  "Quick",  "Seq",    "SetOp",
             "Subquery", "Table", "WorkTable", "UNKNOWN"};
  level3_ = {"NIL",  "Anti",    "Bitmap",  "Full",     "Inner", "Left",
             "Outer", "Parallel", "Partial", "Partition", "Right", "Semi",
             "XN",    "UNKNOWN"};
  // UNKNOWN tokens are appended last so every pre-existing id is stable.
  br_open_ = LookupId(level1_, "BR_OPEN");
  br_close_ = LookupId(level1_, "BR_CLOSE");
  cls_ = LookupId(level1_, "CLS");
  sep_ = LookupId(level1_, "SEP");
  unknown1_ = LookupId(level1_, "UNKNOWN");
  unknown2_ = LookupId(level2_, "UNKNOWN");
  unknown3_ = LookupId(level3_, "UNKNOWN");
}

const Taxonomy& Taxonomy::Get() {
  static const Taxonomy* const kInstance = new Taxonomy();
  return *kInstance;
}

int Taxonomy::LookupId(const std::vector<std::string>& names,
                       std::string_view name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int Taxonomy::Level1Id(std::string_view name) const {
  const int id = LookupId(level1_, name);
  return id < 0 ? unknown1_ : id;
}
int Taxonomy::Level2Id(std::string_view name) const {
  const int id = LookupId(level2_, name);
  return id < 0 ? unknown2_ : id;
}
int Taxonomy::Level3Id(std::string_view name) const {
  const int id = LookupId(level3_, name);
  return id < 0 ? unknown3_ : id;
}

int Taxonomy::FindLevel1(std::string_view name) const {
  return LookupId(level1_, name);
}
int Taxonomy::FindLevel2(std::string_view name) const {
  return LookupId(level2_, name);
}
int Taxonomy::FindLevel3(std::string_view name) const {
  return LookupId(level3_, name);
}

OperatorType OperatorType::FromNames(std::string_view l1, std::string_view l2,
                                     std::string_view l3) {
  const Taxonomy& tax = Taxonomy::Get();
  return OperatorType(
      static_cast<uint8_t>(l1.empty() ? 0 : tax.Level1Id(l1)),
      static_cast<uint8_t>(l2.empty() ? 0 : tax.Level2Id(l2)),
      static_cast<uint8_t>(l3.empty() ? 0 : tax.Level3Id(l3)));
}

OperatorType OperatorType::Unknown() {
  const Taxonomy& tax = Taxonomy::Get();
  return OperatorType(static_cast<uint8_t>(tax.unknown1()), 0, 0);
}

OperatorType OperatorType::Parse(std::string_view token) {
  // Up to three '-'-separated names; anything after a third '-' is ignored.
  std::string_view parts[3];
  int part = 0;
  size_t begin = 0;
  for (size_t i = 0; i <= token.size(); ++i) {
    if (i < token.size() && token[i] != '-') continue;
    parts[part] = token.substr(begin, i - begin);
    begin = i + 1;
    if (i == token.size() || ++part >= 3) break;
  }
  return FromNames(parts[0], parts[1], parts[2]);
}

std::string OperatorType::ToString(bool full) const {
  const Taxonomy& tax = Taxonomy::Get();
  std::ostringstream oss;
  oss << tax.Level1Name(level1);
  if (full || level2 != 0 || level3 != 0) oss << "-" << tax.Level2Name(level2);
  if (full || level3 != 0) oss << "-" << tax.Level3Name(level3);
  return oss.str();
}

bool OperatorType::operator<(const OperatorType& other) const {
  // The order of the ToString(true) strings without building them: every
  // taxonomy name uses only characters above the '-' separator, so a name
  // sorts before any longer name it prefixes either way.
  const Taxonomy& tax = Taxonomy::Get();
  const std::string_view a1 = tax.Level1Name(level1);
  const std::string_view b1 = tax.Level1Name(other.level1);
  if (a1 != b1) return a1 < b1;
  const std::string_view a2 = tax.Level2Name(level2);
  const std::string_view b2 = tax.Level2Name(other.level2);
  if (a2 != b2) return a2 < b2;
  return tax.Level3Name(level3) < tax.Level3Name(other.level3);
}

OperatorGroup GroupOf(const OperatorType& type) {
  const Taxonomy& tax = Taxonomy::Get();
  const std::string& l1 = tax.Level1Name(type.level1);
  const std::string& l2 = tax.Level2Name(type.level2);
  if (l1 == "Scan") return OperatorGroup::kScan;
  if (l1 == "Join") return OperatorGroup::kJoin;
  if (l1 == "Loop" && l2 == "Nested") return OperatorGroup::kJoin;
  if (l1 == "Sort") return OperatorGroup::kSort;
  if (l1 == "Aggregate" || l1 == "Group" || l1 == "GroupAggregate" ||
      l1 == "WindowAgg") {
    return OperatorGroup::kAggregate;
  }
  return OperatorGroup::kOther;
}

const char* GroupName(OperatorGroup group) {
  switch (group) {
    case OperatorGroup::kScan:
      return "Scan";
    case OperatorGroup::kJoin:
      return "Join";
    case OperatorGroup::kSort:
      return "Sort";
    case OperatorGroup::kAggregate:
      return "Aggregate";
    case OperatorGroup::kOther:
      return "Other";
  }
  return "Unknown";
}

}  // namespace qpe::plan
