#ifndef QPE_SMATCH_SMATCH_H_
#define QPE_SMATCH_SMATCH_H_

#include <cstdint>
#include <vector>

#include "plan/plan_node.h"

namespace qpe::smatch {

// Smatch (Cai & Knight 2013) adapted to query plan trees, as used by the
// paper (§3.1.1) to supervise the structure encoder: the similarity of two
// plans is the maximum F1 obtainable by a one-to-one matching of their
// nodes, counting matched triples.
//
// Triples for a plan:
//   - instance triples (n, levelK, subtype) for each of the three taxonomy
//     levels of every node (NIL levels included, so every node carries three
//     instance triples);
//   - edge triples (parent, child, n) for every tree edge.
//
// Finding the maximizing matching is NP-hard in general; like the original
// Smatch tool we use hill-climbing with restarts, plus an exact
// branch-and-bound oracle for small plans (tests).

struct SmatchScore {
  double precision = 0;
  double recall = 0;
  double f1 = 0;
  int matched_triples = 0;
  int triples_left = 0;   // total triples in the first plan
  int triples_right = 0;  // total triples in the second plan
};

struct SmatchOptions {
  int restarts = 4;       // 1 greedy init + (restarts-1) random inits
  int max_passes = 50;    // hill-climbing passes per restart
  uint64_t seed = 1234;   // for the random restarts
};

// Internal flattened representation of a plan, exposed for tests and for
// callers that score one plan against many (precompute once).
struct FlatPlan {
  // Per node: the three sub-type ids.
  std::vector<plan::OperatorType> types;
  // Tree edges as (parent index, child index). The scorers ignore an edge
  // whose endpoints are not node indices (it still counts in NumTriples).
  std::vector<std::pair<int, int>> edges;

  int NumTriples() const {
    return static_cast<int>(types.size()) * 3 + static_cast<int>(edges.size());
  }
};

FlatPlan Flatten(const plan::PlanNode& root);

// Hill-climbing Smatch between two plans.
SmatchScore Score(const plan::PlanNode& left, const plan::PlanNode& right,
                  const SmatchOptions& options = {});
SmatchScore Score(const FlatPlan& left, const FlatPlan& right,
                  const SmatchOptions& options = {});

// Exact maximum-F1 matching by branch-and-bound; only call for small plans
// (<= ~10 nodes on each side).
SmatchScore ScoreExact(const plan::PlanNode& left, const plan::PlanNode& right);
SmatchScore ScoreExact(const FlatPlan& left, const FlatPlan& right);

}  // namespace qpe::smatch

#endif  // QPE_SMATCH_SMATCH_H_
