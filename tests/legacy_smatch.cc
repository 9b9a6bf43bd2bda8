#include "legacy_smatch.h"

#include <algorithm>
#include <unordered_set>

#include "util/rng.h"

namespace qpe::smatch::legacy {

namespace {

// Number of matching instance triples if left node i is mapped to right
// node j: one per equal taxonomy sub-type (all levels always present).
int InstanceMatches(const plan::OperatorType& a, const plan::OperatorType& b) {
  return (a.level1 == b.level1) + (a.level2 == b.level2) +
         (a.level3 == b.level3);
}

struct Problem {
  const FlatPlan& left;
  const FlatPlan& right;
  // inst[i][j] = instance triple matches for mapping i -> j.
  std::vector<std::vector<int>> inst;
  // Right-side edge set for O(1) membership tests.
  std::unordered_set<int64_t> right_edges;
  // Left adjacency: for node i, edges where i is parent / child.
  std::vector<std::vector<int>> left_children;  // i -> child nodes
  std::vector<std::vector<int>> left_parents;   // i -> parent nodes

  explicit Problem(const FlatPlan& l, const FlatPlan& r) : left(l), right(r) {
    const int nl = static_cast<int>(left.types.size());
    inst.assign(nl, std::vector<int>(right.types.size()));
    for (int i = 0; i < nl; ++i) {
      for (size_t j = 0; j < right.types.size(); ++j) {
        inst[i][j] = InstanceMatches(left.types[i], right.types[j]);
      }
    }
    for (const auto& [p, c] : right.edges) {
      right_edges.insert(static_cast<int64_t>(p) * 1000003 + c);
    }
    left_children.assign(nl, {});
    left_parents.assign(nl, {});
    for (const auto& [p, c] : left.edges) {
      left_children[p].push_back(c);
      left_parents[c].push_back(p);
    }
  }

  bool RightEdge(int p, int c) const {
    if (p < 0 || c < 0) return false;
    return right_edges.count(static_cast<int64_t>(p) * 1000003 + c) > 0;
  }

  // Total matched triples under the mapping (mapping[i] = right node or -1).
  int TotalScore(const std::vector<int>& mapping) const {
    int score = 0;
    for (size_t i = 0; i < mapping.size(); ++i) {
      if (mapping[i] >= 0) score += inst[i][mapping[i]];
    }
    for (const auto& [p, c] : left.edges) {
      if (RightEdge(mapping[p], mapping[c])) ++score;
    }
    return score;
  }

  // Score delta from remapping node i from mapping[i] to j (j may be -1),
  // holding everything else fixed.
  int RemapGain(const std::vector<int>& mapping, int i, int j) const {
    const int old_j = mapping[i];
    if (old_j == j) return 0;
    int gain = 0;
    if (j >= 0) gain += inst[i][j];
    if (old_j >= 0) gain -= inst[i][old_j];
    for (int c : left_children[i]) {
      const int mc = c == i ? j : mapping[c];
      gain += RightEdge(j, mc) - RightEdge(old_j, mapping[c]);
    }
    for (int p : left_parents[i]) {
      const int mp = p == i ? j : mapping[p];
      gain += RightEdge(mp, j) - RightEdge(mapping[p], old_j);
    }
    return gain;
  }
};

SmatchScore MakeScore(int matched, const FlatPlan& left, const FlatPlan& right) {
  SmatchScore score;
  score.matched_triples = matched;
  score.triples_left = left.NumTriples();
  score.triples_right = right.NumTriples();
  score.precision =
      score.triples_left > 0
          ? static_cast<double>(matched) / score.triples_left
          : 0.0;
  score.recall = score.triples_right > 0
                     ? static_cast<double>(matched) / score.triples_right
                     : 0.0;
  score.f1 = (score.precision + score.recall) > 0
                 ? 2 * score.precision * score.recall /
                       (score.precision + score.recall)
                 : 0.0;
  return score;
}

// Greedy initial mapping: repeatedly assign the (i, j) pair with the highest
// instance-match count among unassigned nodes, ties broken by index.
std::vector<int> GreedyInit(const Problem& prob) {
  const int nl = static_cast<int>(prob.left.types.size());
  const int nr = static_cast<int>(prob.right.types.size());
  std::vector<int> mapping(nl, -1);
  std::vector<bool> right_used(nr, false);
  for (int round = 0; round < std::min(nl, nr); ++round) {
    int best_i = -1, best_j = -1, best = -1;
    for (int i = 0; i < nl; ++i) {
      if (mapping[i] >= 0) continue;
      for (int j = 0; j < nr; ++j) {
        if (right_used[j]) continue;
        if (prob.inst[i][j] > best) {
          best = prob.inst[i][j];
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_i < 0) break;
    mapping[best_i] = best_j;
    right_used[best_j] = true;
  }
  return mapping;
}

std::vector<int> RandomInit(const Problem& prob, util::Rng* rng) {
  const int nl = static_cast<int>(prob.left.types.size());
  const int nr = static_cast<int>(prob.right.types.size());
  std::vector<int> right_perm = rng->Permutation(nr);
  std::vector<int> mapping(nl, -1);
  for (int i = 0; i < nl && i < nr; ++i) mapping[i] = right_perm[i];
  return mapping;
}

// Best-improvement hill climbing with remap and swap moves.
int HillClimb(const Problem& prob, std::vector<int>* mapping, int max_passes) {
  const int nl = static_cast<int>(prob.left.types.size());
  const int nr = static_cast<int>(prob.right.types.size());
  std::vector<bool> right_used(nr, false);
  for (int j : *mapping) {
    if (j >= 0) right_used[j] = true;
  }
  int score = prob.TotalScore(*mapping);
  for (int pass = 0; pass < max_passes; ++pass) {
    int best_gain = 0;
    int move_i = -1, move_j = -1, move_i2 = -1;  // remap or swap
    // Remap moves: i -> any unused j (or unmap).
    for (int i = 0; i < nl; ++i) {
      for (int j = -1; j < nr; ++j) {
        if (j >= 0 && right_used[j]) continue;
        const int gain = prob.RemapGain(*mapping, i, j);
        if (gain > best_gain) {
          best_gain = gain;
          move_i = i;
          move_j = j;
          move_i2 = -1;
        }
      }
    }
    // Swap moves: exchange the images of i and i2.
    for (int i = 0; i < nl; ++i) {
      for (int i2 = i + 1; i2 < nl; ++i2) {
        if ((*mapping)[i] == (*mapping)[i2]) continue;  // both -1
        std::vector<int>& m = *mapping;
        const int ji = m[i], ji2 = m[i2];
        // Evaluate the swap by applying and rescoring the two nodes'
        // neighbourhoods via RemapGain in sequence.
        const int g1 = prob.RemapGain(m, i, ji2);
        m[i] = ji2;
        const int g2 = prob.RemapGain(m, i2, ji);
        m[i] = ji;
        const int gain = g1 + g2;
        if (gain > best_gain) {
          best_gain = gain;
          move_i = i;
          move_i2 = i2;
          move_j = -2;
        }
      }
    }
    if (best_gain <= 0) break;
    std::vector<int>& m = *mapping;
    if (move_j == -2) {
      std::swap(m[move_i], m[move_i2]);
    } else {
      if (m[move_i] >= 0) right_used[m[move_i]] = false;
      if (move_j >= 0) right_used[move_j] = true;
      m[move_i] = move_j;
    }
    score += best_gain;
  }
  return score;
}

// Exact search: branch over left nodes in order, assigning each to an unused
// right node or -1, with an admissible upper bound for pruning.
class ExactSearch {
 public:
  explicit ExactSearch(const Problem& prob) : prob_(prob) {
    nl_ = static_cast<int>(prob.left.types.size());
    nr_ = static_cast<int>(prob.right.types.size());
    mapping_.assign(nl_, -1);
    right_used_.assign(nr_, false);
    // Upper bound per left node: best instance match + out-degree + in-degree
    // (every incident edge could match at most once).
    ub_suffix_.assign(nl_ + 1, 0);
    for (int i = nl_ - 1; i >= 0; --i) {
      int best_inst = 0;
      for (int j = 0; j < nr_; ++j) {
        best_inst = std::max(best_inst, prob.inst[i][j]);
      }
      // Each left edge can match at most once; we attribute the edge to its
      // child node (the later preorder index), matching Dfs()'s accounting.
      int incoming = static_cast<int>(prob.left_parents[i].size());
      ub_suffix_[i] = ub_suffix_[i + 1] + best_inst + incoming;
    }
  }

  int Run() {
    best_ = 0;
    Dfs(0, 0);
    return best_;
  }

 private:
  void Dfs(int i, int score) {
    if (score + ub_suffix_[i] <= best_) return;
    if (i == nl_) {
      best_ = std::max(best_, score);
      return;
    }
    for (int j = -1; j < nr_; ++j) {
      if (j >= 0 && right_used_[j]) continue;
      // Partial score gain: instance matches plus edges to already-assigned
      // neighbours (parents of i are always earlier in preorder; children are
      // later, counted when the child is assigned).
      int gain = j >= 0 ? prob_.inst[i][j] : 0;
      for (int p : prob_.left_parents[i]) {
        if (p < i && prob_.RightEdge(mapping_[p], j)) ++gain;
      }
      mapping_[i] = j;
      if (j >= 0) right_used_[j] = true;
      Dfs(i + 1, score + gain);
      if (j >= 0) right_used_[j] = false;
      mapping_[i] = -1;
    }
  }

  const Problem& prob_;
  int nl_ = 0, nr_ = 0;
  int best_ = 0;
  std::vector<int> mapping_;
  std::vector<bool> right_used_;
  std::vector<int> ub_suffix_;
};

int BestMatched(const FlatPlan& left, const FlatPlan& right,
                const SmatchOptions& options) {
  Problem prob(left, right);
  util::Rng rng(options.seed);
  int best = 0;
  for (int r = 0; r < std::max(1, options.restarts); ++r) {
    std::vector<int> mapping =
        r == 0 ? GreedyInit(prob) : RandomInit(prob, &rng);
    best = std::max(best, HillClimb(prob, &mapping, options.max_passes));
  }
  return best;
}

}  // namespace

SmatchScore Score(const FlatPlan& left, const FlatPlan& right,
                  const SmatchOptions& options) {
  if (left.types.empty() || right.types.empty()) {
    return MakeScore(0, left, right);
  }
  // The optimal matched-triple count is symmetric in its arguments; hill
  // climbing is not, so run both orientations and keep the better matching.
  const int best = std::max(BestMatched(left, right, options),
                            BestMatched(right, left, options));
  return MakeScore(best, left, right);
}

SmatchScore ScoreExact(const FlatPlan& left, const FlatPlan& right) {
  if (left.types.empty() || right.types.empty()) {
    return MakeScore(0, left, right);
  }
  Problem prob(left, right);
  ExactSearch search(prob);
  return MakeScore(search.Run(), left, right);
}

}  // namespace qpe::smatch::legacy
