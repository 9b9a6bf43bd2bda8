#include "plan/serialize.h"

#include <charconv>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

namespace qpe::plan {

namespace {

// Property table: name -> accessor pair, covering every numeric/categorical
// field of PlanProperties. Bools and enums are serialized as integers.
struct PropField {
  std::string_view name;
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

void SerializeNode(const PlanNode& node, std::ostringstream& oss) {
  oss << std::setprecision(std::numeric_limits<double>::max_digits10);
  oss << "(op \"" << node.type().ToString(/*full=*/true) << "\"";
  for (const std::string& rel : node.relations()) {
    oss << " :rel " << rel;
  }
  static const PlanProperties kDefaults;
  for (const PropField& field : PropFields()) {
    const double v = field.get(node.props());
    if (v != field.get(kDefaults)) {
      oss << " :" << field.name << " " << v;
    }
  }
  for (const auto& child : node.children()) {
    oss << " ";
    SerializeNode(*child, oss);
  }
  oss << ")";
}

// C-locale std::isspace, inlined.
inline bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// A property value as std::strtod reads it. std::from_chars is correctly
// rounded too, so wherever it consumes the whole token it yields strtod's
// bits at a fraction of the cost; every other token (a leading '+', hex
// floats, out-of-range values, trailing junk, no digits at all) goes to
// strtod on a NUL-terminated copy.
double ParseNumber(std::string_view token) {
  double value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc() && ptr == end) return value;
  return std::strtod(std::string(token).c_str(), nullptr);
}

// Single-pass scanner over the s-expression format. Tokens are views into
// the input, so a node costs one PlanNode allocation plus its :rel strings.
// Nesting is tracked on an explicit stack of open nodes rather than by
// recursion, and capped at kMaxPlanNestingDepth. The first failure is
// recorded with its reason and byte offset (see error()), so callers can
// report *where* a corrupt plan text broke instead of just returning
// nullptr.
class Parser {
 public:
  explicit Parser(std::string_view text)
      : text_(text), fields_(PropFields()) {}

  std::unique_ptr<PlanNode> ParseNode() {
    std::unique_ptr<PlanNode> root = OpenNode();
    if (!root) return nullptr;
    // open.back() is the node whose ')' comes next; open.size() its depth.
    std::vector<PlanNode*> open = {root.get()};
    while (true) {
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated plan node (missing ')')");
      }
      const char c = text_[pos_];
      if (c == ')') {
        ++pos_;
        open.pop_back();
        if (open.empty()) return root;
        continue;
      }
      if (c == '(') {
        if (open.size() >= static_cast<size_t>(kMaxPlanNestingDepth)) {
          return Fail("plan nesting deeper than " +
                      std::to_string(kMaxPlanNestingDepth));
        }
        std::unique_ptr<PlanNode> child = OpenNode();
        if (!child) return nullptr;  // error already recorded
        open.push_back(open.back()->AddChild(std::move(child)));
        continue;
      }
      if (c == ':') {
        if (!ParseProperty(open.back())) return nullptr;
        continue;
      }
      return Fail(std::string("unexpected character '") + c + "'");
    }
  }

  // Records the first error (later ones are symptoms of the first).
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

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  std::string_view ParseQuoted() {
    if (!Consume('"')) return {};
    const size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
    const std::string_view out = text_.substr(begin, pos_ - begin);
    Consume('"');
    return out;
  }

  std::string_view ParseWord() {
    const size_t begin = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (IsSpace(c) || c == ')' || c == '(') break;
      ++pos_;
    }
    return text_.substr(begin, pos_ - begin);
  }

  size_t pos() const { return pos_; }

 private:
  // "(op "<type>"" up to the node's first child or property.
  std::unique_ptr<PlanNode> OpenNode() {
    SkipWs();
    if (!Consume('(')) return Fail("expected '(' opening a plan node");
    SkipWs();
    if (!ConsumeWord("op")) return Fail("expected 'op' keyword");
    SkipWs();
    return std::make_unique<PlanNode>(OperatorType::Parse(ParseQuoted()));
  }

  // ":key value" with pos_ on the ':'.
  bool ParseProperty(PlanNode* node) {
    const size_t key_pos = pos_++;
    const std::string_view key = ParseWord();
    SkipWs();
    if (key == "rel") {
      node->AddRelation(std::string(ParseWord()));
      return true;
    }
    const std::string_view value = ParseWord();
    const PropField* field = FindField(key);
    if (field == nullptr) {
      FailAt("unknown property '" + std::string(key) + "'", key_pos);
      return false;
    }
    field->set(node->props(), ParseNumber(value));
    return true;
  }

  // SerializeNode writes properties in table order, so the scan starts
  // just past the previous match and almost always hits on its first
  // probe; length and first byte reject the other candidates cheaply.
  const PropField* FindField(std::string_view key) {
    if (key.empty()) return nullptr;
    const size_t n = fields_.size();
    for (size_t probes = 0; probes < n; ++probes) {
      const PropField& field = fields_[next_field_];
      next_field_ = next_field_ + 1 == n ? 0 : next_field_ + 1;
      const std::string_view name = field.name;
      if (name.size() == key.size() && name[0] == key[0] && name == key) {
        return &field;
      }
    }
    return nullptr;
  }

  std::string_view text_;
  const std::vector<PropField>& fields_;
  size_t pos_ = 0;
  size_t next_field_ = 0;
  std::string error_;
};

}  // namespace

std::string SerializePlanNode(const PlanNode& node) {
  std::ostringstream oss;
  SerializeNode(node, oss);
  return oss.str();
}

std::string SerializePlan(const Plan& plan) {
  std::ostringstream oss;
  oss << std::setprecision(std::numeric_limits<double>::max_digits10);
  oss << "(plan :benchmark " << (plan.benchmark.empty() ? "-" : plan.benchmark)
      << " :template " << (plan.template_id.empty() ? "-" : plan.template_id)
      << " :cluster " << plan.cluster_id << " ";
  if (plan.root) {
    SerializeNode(*plan.root, oss);
  }
  oss << ")";
  return oss.str();
}

util::StatusOr<std::unique_ptr<PlanNode>> ParsePlanNodeChecked(
    std::string_view text) {
  Parser parser(text);
  auto node = parser.ParseNode();
  if (!node) {
    return util::DataLossError("plan node parse failed: " + parser.error());
  }
  return node;
}

util::StatusOr<Plan> ParsePlanChecked(std::string_view text) {
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
      const std::string_view key = parser.ParseWord();
      parser.SkipWs();
      const std::string value(parser.ParseWord());
      if (key == "benchmark") {
        plan.benchmark = value == "-" ? "" : value;
      } else if (key == "template") {
        plan.template_id = value == "-" ? "" : value;
      } else if (key == "cluster") {
        plan.cluster_id = std::atoi(value.c_str());
      } else {
        return fail("unknown plan attribute '" + std::string(key) + "'");
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

std::unique_ptr<PlanNode> ParsePlanNode(std::string_view text) {
  Parser parser(text);
  return parser.ParseNode();
}

std::optional<Plan> ParsePlan(std::string_view text) {
  auto result = ParsePlanChecked(text);
  if (!result.ok()) return std::nullopt;
  return std::move(result.value());
}

}  // namespace qpe::plan
