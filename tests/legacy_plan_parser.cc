#include "legacy_plan_parser.h"

#include <bit>
#include <cctype>
#include <cstdlib>
#include <vector>

namespace qpe::plan::legacy {

namespace {

struct PropField {
  const char* name;
  double (*get)(const PlanProperties&);
  void (*set)(PlanProperties&, double);
};

#define QPE_NUM_FIELD(field)                                      \
  {#field,                                                        \
   [](const PlanProperties& p) {                                  \
     return static_cast<double>(p.field);                         \
   },                                                             \
   [](PlanProperties& p, double v) {                              \
     p.field = static_cast<decltype(p.field)>(v);                 \
   }}
#define QPE_BOOL_FIELD(field)                                     \
  {#field,                                                        \
   [](const PlanProperties& p) { return p.field ? 1.0 : 0.0; },   \
   [](PlanProperties& p, double v) { p.field = v != 0.0; }}
#define QPE_ENUM_FIELD(field, Enum)                               \
  {#field,                                                        \
   [](const PlanProperties& p) {                                  \
     return static_cast<double>(static_cast<int>(p.field));       \
   },                                                             \
   [](PlanProperties& p, double v) {                              \
     p.field = static_cast<Enum>(static_cast<int>(v));            \
   }}

const std::vector<PropField>& PropFields() {
  static const std::vector<PropField>* const kFields =
      new std::vector<PropField>{
          QPE_NUM_FIELD(actual_loops),
          QPE_NUM_FIELD(actual_rows),
          QPE_NUM_FIELD(plan_rows),
          QPE_NUM_FIELD(plan_width),
          QPE_NUM_FIELD(shared_hit_blocks),
          QPE_NUM_FIELD(shared_read_blocks),
          QPE_NUM_FIELD(shared_dirtied_blocks),
          QPE_NUM_FIELD(shared_written_blocks),
          QPE_NUM_FIELD(local_hit_blocks),
          QPE_NUM_FIELD(local_read_blocks),
          QPE_NUM_FIELD(local_dirtied_blocks),
          QPE_NUM_FIELD(local_written_blocks),
          QPE_NUM_FIELD(temp_read_blocks),
          QPE_NUM_FIELD(temp_written_blocks),
          QPE_ENUM_FIELD(parent_relationship, ParentRelationship),
          QPE_NUM_FIELD(plan_buffers),
          QPE_NUM_FIELD(scan_direction),
          QPE_BOOL_FIELD(has_index_condition),
          QPE_BOOL_FIELD(has_recheck_condition),
          QPE_BOOL_FIELD(has_filter),
          QPE_NUM_FIELD(rows_removed_by_filter),
          QPE_NUM_FIELD(heap_blocks),
          QPE_BOOL_FIELD(parallel),
          QPE_ENUM_FIELD(join_kind, JoinKind),
          QPE_BOOL_FIELD(inner_unique),
          QPE_BOOL_FIELD(has_merge_condition),
          QPE_BOOL_FIELD(has_hash_condition),
          QPE_NUM_FIELD(rows_removed_by_join_filter),
          QPE_NUM_FIELD(hash_buckets),
          QPE_NUM_FIELD(hash_batches),
          QPE_ENUM_FIELD(sort_method, SortMethod),
          QPE_NUM_FIELD(sort_space_used_kb),
          QPE_BOOL_FIELD(sort_space_on_disk),
          QPE_NUM_FIELD(num_sort_keys),
          QPE_ENUM_FIELD(aggregate_strategy, AggregateStrategy),
          QPE_BOOL_FIELD(parallel_aware),
          QPE_BOOL_FIELD(partial_mode),
          QPE_NUM_FIELD(peak_memory_kb),
          QPE_NUM_FIELD(startup_cost),
          QPE_NUM_FIELD(total_cost),
          QPE_NUM_FIELD(actual_startup_time_ms),
          QPE_NUM_FIELD(actual_total_time_ms),
      };
  return *kFields;
}

#undef QPE_NUM_FIELD
#undef QPE_BOOL_FIELD
#undef QPE_ENUM_FIELD

// OperatorType::Parse as it was: one std::string per sub-type name.
OperatorType ParseOperatorType(const std::string& token) {
  std::string parts[3];
  int part = 0;
  for (char c : token) {
    if (c == '-') {
      if (++part >= 3) break;
    } else {
      parts[part].push_back(c);
    }
  }
  return OperatorType::FromNames(parts[0], parts[1], parts[2]);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::unique_ptr<PlanNode> ParseNode() {
    SkipWs();
    if (!Consume('(')) return Fail("expected '(' opening a plan node");
    SkipWs();
    if (!ConsumeWord("op")) return Fail("expected 'op' keyword");
    SkipWs();
    const std::string type_token = ParseQuoted();
    auto node = std::make_unique<PlanNode>(ParseOperatorType(type_token));
    while (true) {
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated plan node (missing ')')");
      }
      if (text_[pos_] == ')') {
        ++pos_;
        return node;
      }
      if (text_[pos_] == '(') {
        auto child = ParseNode();
        if (!child) return nullptr;  // error already recorded
        node->AddChild(std::move(child));
        continue;
      }
      if (text_[pos_] == ':') {
        const size_t key_pos = pos_;
        ++pos_;
        const std::string key = ParseWord();
        SkipWs();
        if (key == "rel") {
          node->AddRelation(ParseWord());
          continue;
        }
        const std::string value = ParseWord();
        bool found = false;
        for (const PropField& field : PropFields()) {
          if (key == field.name) {
            field.set(node->props(), std::strtod(value.c_str(), nullptr));
            found = true;
            break;
          }
        }
        if (!found) {
          return FailAt("unknown property '" + key + "'", key_pos);
        }
        continue;
      }
      return Fail(std::string("unexpected character '") + text_[pos_] + "'");
    }
  }

  std::nullptr_t Fail(const std::string& reason) { return FailAt(reason, pos_); }
  std::nullptr_t FailAt(const std::string& reason, size_t pos) {
    if (error_.empty()) {
      error_ = reason + " at offset " + std::to_string(pos);
    }
    return nullptr;
  }
  const std::string& error() const { return error_; }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string ParseQuoted() {
    std::string out;
    if (!Consume('"')) return out;
    while (pos_ < text_.size() && text_[pos_] != '"') out.push_back(text_[pos_++]);
    Consume('"');
    return out;
  }

  std::string ParseWord() {
    std::string out;
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(
                                      text_[pos_])) &&
           text_[pos_] != ')' && text_[pos_] != '(') {
      out.push_back(text_[pos_++]);
    }
    return out;
  }

  size_t pos() const { return pos_; }

 private:
  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

util::StatusOr<std::unique_ptr<PlanNode>> ParsePlanNodeChecked(
    const std::string& text) {
  Parser parser(text);
  auto node = parser.ParseNode();
  if (!node) {
    return util::DataLossError("plan node parse failed: " + parser.error());
  }
  return node;
}

util::StatusOr<Plan> ParsePlanChecked(const std::string& text) {
  Parser parser(text);
  auto fail = [&parser](const std::string& reason) {
    return util::DataLossError("plan parse failed: " + reason + " at offset " +
                               std::to_string(parser.pos()));
  };
  parser.SkipWs();
  if (!parser.Consume('(')) return fail("expected '(' opening the plan");
  parser.SkipWs();
  if (!parser.ConsumeWord("plan")) return fail("expected 'plan' keyword");
  Plan plan;
  while (true) {
    parser.SkipWs();
    if (parser.pos() >= text.size()) {
      return fail("unterminated plan (missing ')')");
    }
    if (parser.Consume(')')) break;
    if (parser.Consume(':')) {
      const std::string key = parser.ParseWord();
      parser.SkipWs();
      const std::string value = parser.ParseWord();
      if (key == "benchmark") {
        plan.benchmark = value == "-" ? "" : value;
      } else if (key == "template") {
        plan.template_id = value == "-" ? "" : value;
      } else if (key == "cluster") {
        plan.cluster_id = std::atoi(value.c_str());
      } else {
        return fail("unknown plan attribute '" + key + "'");
      }
      continue;
    }
    plan.root = parser.ParseNode();
    if (!plan.root) {
      return util::DataLossError("plan parse failed: " + parser.error());
    }
  }
  return plan;
}

std::vector<uint64_t> PropertyBits(const PlanProperties& props) {
  std::vector<uint64_t> bits;
  bits.reserve(PropFields().size());
  for (const PropField& field : PropFields()) {
    bits.push_back(std::bit_cast<uint64_t>(field.get(props)));
  }
  return bits;
}

}  // namespace qpe::plan::legacy
