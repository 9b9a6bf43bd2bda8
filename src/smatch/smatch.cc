#include "smatch/smatch.h"

#include <algorithm>
#include <cstdint>

#include "util/rng.h"

namespace qpe::smatch {

namespace {

// Most instance triples one node pair can share: one per taxonomy level.
constexpr int kMaxInstanceMatches = 3;

// A thread keeps its tables between calls unless one pair needed a gain
// table larger than this (about 500 x 500 nodes), so an outsized pair does
// not pin its memory on the thread for good.
constexpr size_t kMaxRetainedGainEntries = size_t{1} << 18;

// Number of matching instance triples if left node i is mapped to right
// node j: one per equal taxonomy sub-type (all levels always present).
int InstanceMatches(const plan::OperatorType& a, const plan::OperatorType& b) {
  return (a.level1 == b.level1) + (a.level2 == b.level2) +
         (a.level3 == b.level3);
}

bool ValidEdge(const std::pair<int, int>& e, int n) {
  return e.first >= 0 && e.first < n && e.second >= 0 && e.second < n;
}

// CSR adjacency of n nodes: for each valid edge, one entry under its
// parent (by_child == false: the entry is the child) or under its child
// (by_child == true: the entry is the parent), in edge order.
void BuildCsr(const std::vector<std::pair<int, int>>& edges, int n,
              bool by_child, std::vector<int>* off, std::vector<int>* idx) {
  off->assign(n + 1, 0);
  for (const auto& e : edges) {
    if (ValidEdge(e, n)) ++(*off)[by_child ? e.second : e.first];
  }
  int start = 0;
  for (int i = 0; i <= n; ++i) {
    const int count = (*off)[i];
    (*off)[i] = start;
    start += count;
  }
  idx->resize(start);
  for (const auto& e : edges) {
    if (!ValidEdge(e, n)) continue;
    const int owner = by_child ? e.second : e.first;
    (*idx)[(*off)[owner]++] = by_child ? e.first : e.second;
  }
  // Each off[i] now holds the start of node i + 1; shift them back.
  for (int i = n; i > 0; --i) (*off)[i] = (*off)[i - 1];
  (*off)[0] = 0;
}

// Dense tables for one orientation of a pair: left nodes are mapped onto
// right nodes. Right nodes are addressed by slot = index + 1; slot 0 means
// "unmapped" and its row and column are zero in every table, so no move
// gain needs a branch on unmapped nodes.
struct Problem {
  int nl = 0;
  int nr = 0;
  int stride = 0;  // nr + 1 slots
  // inst[i * stride + s]: instance triple matches for mapping i -> slot s.
  std::vector<uint8_t> inst;
  // edge[a * stride + b] = 1 iff the right plan has the edge (a-1 -> b-1);
  // edge_t is its transpose and diag its diagonal.
  std::vector<uint8_t> edge;
  std::vector<uint8_t> edge_t;
  std::vector<uint8_t> diag;
  // Left adjacency, one entry per edge, so duplicate edges repeat and a
  // self-loop lists i among its own children and parents: the children of
  // i are child_idx[child_off[i] .. child_off[i + 1]).
  std::vector<int> child_off, child_idx;
  std::vector<int> parent_off, parent_idx;

  // Edges whose endpoints are not node indices of their plan are left out.
  void Build(const FlatPlan& left, const FlatPlan& right) {
    nl = static_cast<int>(left.types.size());
    nr = static_cast<int>(right.types.size());
    stride = nr + 1;
    inst.assign(static_cast<size_t>(nl) * stride, 0);
    for (int i = 0; i < nl; ++i) {
      uint8_t* row = &inst[static_cast<size_t>(i) * stride];
      for (int j = 0; j < nr; ++j) {
        row[j + 1] = static_cast<uint8_t>(
            InstanceMatches(left.types[i], right.types[j]));
      }
    }
    edge.assign(static_cast<size_t>(stride) * stride, 0);
    edge_t.assign(static_cast<size_t>(stride) * stride, 0);
    diag.assign(stride, 0);
    for (const auto& e : right.edges) {
      if (!ValidEdge(e, nr)) continue;
      const int a = e.first + 1, b = e.second + 1;
      edge[static_cast<size_t>(a) * stride + b] = 1;
      edge_t[static_cast<size_t>(b) * stride + a] = 1;
      if (a == b) diag[a] = 1;
    }
    BuildCsr(left.edges, nl, /*by_child=*/false, &child_off, &child_idx);
    BuildCsr(left.edges, nl, /*by_child=*/true, &parent_off, &parent_idx);
  }

  const uint8_t* Inst(int i) const {
    return &inst[static_cast<size_t>(i) * stride];
  }
  // Row a of edge: b -> edge (a-1 -> b-1). Row a of edge_t: b -> (b-1 -> a-1).
  const uint8_t* EdgeFrom(int a) const {
    return &edge[static_cast<size_t>(a) * stride];
  }
  const uint8_t* EdgeInto(int a) const {
    return &edge_t[static_cast<size_t>(a) * stride];
  }
  int RightEdge(int a, int b) const {
    return edge[static_cast<size_t>(a) * stride + b];
  }
};

// Hill-climbing state for one orientation, reused across restarts.
struct Climb {
  std::vector<int> slot;      // slot[i]: right slot of left node i
  std::vector<uint8_t> used;  // per right slot; used[0] stays 0
  // gain[i * stride + s]: the contribution of left node i if it sat at
  // slot s with every other node where it is: its instance matches plus
  // its matched incident edges, a self-loop counted as child and as parent.
  std::vector<int> gain;
  std::vector<int> cur;  // gain at the node's own slot, per pass
  std::vector<int> adj;  // edges between the swap's first node and each node
  std::vector<int> perm;
};

// Per-thread tables, so scoring a pair allocates nothing once the buffers
// have grown to the pair sizes seen.
struct Workspace {
  Problem prob;
  Climb climb;
};

Workspace& ThreadWorkspace() {
  thread_local Workspace workspace;
  return workspace;
}

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

void ResetMapping(const Problem& prob, Climb* climb) {
  climb->slot.assign(prob.nl, 0);
  climb->used.assign(prob.stride, 0);
}

// Greedy initial mapping: repeatedly assign the (i, j) pair with the highest
// instance-match count among unassigned nodes, ties broken by index. A scan
// stops at the first pair reaching the maximum, which no later pair beats.
void GreedyInit(const Problem& prob, Climb* climb) {
  ResetMapping(prob, climb);
  for (int round = 0; round < std::min(prob.nl, prob.nr); ++round) {
    int best_i = -1, best_s = 0, best = -1;
    for (int i = 0; i < prob.nl && best < kMaxInstanceMatches; ++i) {
      if (climb->slot[i] > 0) continue;
      const uint8_t* row = prob.Inst(i);
      for (int s = 1; s <= prob.nr && best < kMaxInstanceMatches; ++s) {
        if (climb->used[s]) continue;
        if (row[s] > best) {
          best = row[s];
          best_i = i;
          best_s = s;
        }
      }
    }
    if (best_i < 0) break;
    climb->slot[best_i] = best_s;
    climb->used[best_s] = 1;
  }
}

void RandomInit(const Problem& prob, util::Rng* rng, Climb* climb) {
  ResetMapping(prob, climb);
  rng->Permutation(prob.nr, &climb->perm);
  for (int i = 0; i < prob.nl && i < prob.nr; ++i) {
    climb->slot[i] = climb->perm[i] + 1;
    climb->used[climb->slot[i]] = 1;
  }
}

// Total matched triples under the mapping.
int TotalScore(const Problem& prob, const Climb& climb) {
  int score = 0;
  for (int i = 0; i < prob.nl; ++i) {
    const int s = climb.slot[i];
    score += prob.Inst(i)[s];
    for (int k = prob.child_off[i]; k < prob.child_off[i + 1]; ++k) {
      score += prob.RightEdge(s, climb.slot[prob.child_idx[k]]);
    }
  }
  return score;
}

void AddRow(const uint8_t* row, int n, int* out) {
  for (int s = 0; s < n; ++s) out[s] += row[s];
}

void AddRowDelta(const uint8_t* add, const uint8_t* sub, int n, int* out) {
  for (int s = 0; s < n; ++s) out[s] += add[s] - sub[s];
}

void BuildGainTable(const Problem& prob, Climb* climb) {
  const int n = prob.stride;
  climb->gain.resize(static_cast<size_t>(prob.nl) * n);
  for (int i = 0; i < prob.nl; ++i) {
    int* g = &climb->gain[static_cast<size_t>(i) * n];
    const uint8_t* inst = prob.Inst(i);
    for (int s = 0; s < n; ++s) g[s] = inst[s];
    // Edge i -> c matches at slot s iff the right plan has s -> slot[c].
    for (int k = prob.child_off[i]; k < prob.child_off[i + 1]; ++k) {
      const int c = prob.child_idx[k];
      AddRow(c == i ? prob.diag.data() : prob.EdgeInto(climb->slot[c]), n, g);
    }
    for (int k = prob.parent_off[i]; k < prob.parent_off[i + 1]; ++k) {
      const int p = prob.parent_idx[k];
      AddRow(p == i ? prob.diag.data() : prob.EdgeFrom(climb->slot[p]), n, g);
    }
  }
}

// Updates the gain rows of x's neighbours after x moved between slots. A
// self-loop's term depends only on the slot it is evaluated at, so x's own
// row never changes.
void MoveNode(const Problem& prob, int x, int from, int to, Climb* climb) {
  const int n = prob.stride;
  for (int k = prob.child_off[x]; k < prob.child_off[x + 1]; ++k) {
    const int c = prob.child_idx[k];
    if (c == x) continue;
    AddRowDelta(prob.EdgeFrom(to), prob.EdgeFrom(from), n,
                &climb->gain[static_cast<size_t>(c) * n]);
  }
  for (int k = prob.parent_off[x]; k < prob.parent_off[x + 1]; ++k) {
    const int p = prob.parent_idx[k];
    if (p == x) continue;
    AddRowDelta(prob.EdgeInto(to), prob.EdgeInto(from), n,
                &climb->gain[static_cast<size_t>(p) * n]);
  }
}

// Marks (delta = 1) or clears (delta = -1) in climb->adj the edges that
// join node i to each other node, in either direction.
void CountAdjacent(const Problem& prob, int i, int delta, Climb* climb) {
  for (int k = prob.child_off[i]; k < prob.child_off[i + 1]; ++k) {
    if (prob.child_idx[k] != i) climb->adj[prob.child_idx[k]] += delta;
  }
  for (int k = prob.parent_off[i]; k < prob.parent_off[i + 1]; ++k) {
    if (prob.parent_idx[k] != i) climb->adj[prob.parent_idx[k]] += delta;
  }
}

// Best-improvement hill climbing with remap and swap moves. Every move is
// scored from the gain table: a remap of i to slot s gains
// gain[i][s] - cur[i], and a swap of i (at a) with i2 (at b) gains
//   gain[i][b] - cur[i] + gain[i2][a] - cur[i2]
//     + k * (E(a,b) + E(b,a) - E(a,a) - E(b,b)),
// where k counts the left edges between i and i2: the two gain entries
// evaluate such an edge with the partner still at its old slot. This is
// the score change the original apply-and-rescore evaluation produced,
// self-loops (counted twice) and duplicate edges included, so the move
// sequence and the returned score are unchanged.
int HillClimb(const Problem& prob, int max_passes, Climb* climb) {
  const int nl = prob.nl, n = prob.stride;
  std::vector<int>& slot = climb->slot;
  climb->cur.resize(nl);
  climb->adj.assign(nl, 0);
  int score = TotalScore(prob, *climb);
  if (max_passes > 0) BuildGainTable(prob, climb);
  for (int pass = 0; pass < max_passes; ++pass) {
    for (int i = 0; i < nl; ++i) {
      climb->cur[i] = climb->gain[static_cast<size_t>(i) * n + slot[i]];
    }
    int best_gain = 0;
    int move_i = -1, move_s = 0, move_i2 = -1;  // move_i2 >= 0: a swap
    // Remap moves: i -> any unused slot, or unmapped (slot 0).
    for (int i = 0; i < nl; ++i) {
      const int* g = &climb->gain[static_cast<size_t>(i) * n];
      const int cur = climb->cur[i];
      for (int s = 0; s < n; ++s) {
        if (climb->used[s]) continue;
        if (g[s] - cur > best_gain) {
          best_gain = g[s] - cur;
          move_i = i;
          move_s = s;
        }
      }
    }
    // Swap moves: exchange the slots of i and i2.
    for (int i = 0; i < nl; ++i) {
      const int a = slot[i];
      const int* g = &climb->gain[static_cast<size_t>(i) * n];
      const int cur = climb->cur[i];
      CountAdjacent(prob, i, 1, climb);
      for (int i2 = i + 1; i2 < nl; ++i2) {
        const int b = slot[i2];
        if (a == b) continue;  // both unmapped
        int gain = g[b] - cur +
                   climb->gain[static_cast<size_t>(i2) * n + a] -
                   climb->cur[i2];
        if (climb->adj[i2] != 0) {
          gain += climb->adj[i2] *
                  (prob.RightEdge(a, b) + prob.RightEdge(b, a) -
                   prob.RightEdge(a, a) - prob.RightEdge(b, b));
        }
        if (gain > best_gain) {
          best_gain = gain;
          move_i = i;
          move_i2 = i2;
        }
      }
      CountAdjacent(prob, i, -1, climb);
    }
    if (best_gain <= 0) break;
    const int from = slot[move_i];
    if (move_i2 >= 0) {
      const int other = slot[move_i2];
      slot[move_i] = other;
      slot[move_i2] = from;
      MoveNode(prob, move_i, from, other, climb);
      MoveNode(prob, move_i2, other, from, climb);
    } else {
      climb->used[from] = 0;
      climb->used[move_s] = move_s > 0;
      slot[move_i] = move_s;
      MoveNode(prob, move_i, from, move_s, climb);
    }
    score += best_gain;
  }
  return score;
}

void FlattenInto(const plan::PlanNode& node, int parent, FlatPlan* out) {
  const int id = static_cast<int>(out->types.size());
  out->types.push_back(node.type());
  if (parent >= 0) out->edges.emplace_back(parent, id);
  for (const auto& child : node.children()) {
    FlattenInto(*child, id, out);
  }
}

// Exact search: branch over left nodes in order, assigning each to an unused
// right node or leaving it unmapped, with an admissible upper bound for
// pruning.
class ExactSearch {
 public:
  explicit ExactSearch(const Problem& prob) : prob_(prob) {
    nl_ = prob.nl;
    slot_.assign(nl_, 0);
    used_.assign(prob.stride, 0);
    // Upper bound per left node: best instance match + the edges Dfs()
    // counts at it (each left edge can match at most once).
    ub_suffix_.assign(nl_ + 1, 0);
    for (int i = nl_ - 1; i >= 0; --i) {
      const uint8_t* inst = prob.Inst(i);
      const int best_inst = *std::max_element(inst, inst + prob.stride);
      int closing = 0;
      for (int k = prob.parent_off[i]; k < prob.parent_off[i + 1]; ++k) {
        closing += prob.parent_idx[k] <= i;
      }
      for (int k = prob.child_off[i]; k < prob.child_off[i + 1]; ++k) {
        closing += prob.child_idx[k] < i;
      }
      ub_suffix_[i] = ub_suffix_[i + 1] + best_inst + closing;
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
    for (int s = 0; s < prob_.stride; ++s) {
      if (used_[s]) continue;
      // Partial score gain: instance matches plus every left edge whose
      // later endpoint is i — each edge is counted once, when both of its
      // endpoints are assigned, whatever the node order (a plan need not
      // be in preorder). A self-loop counts once, under its parent entry,
      // as the total score counts it; duplicate edges count per copy.
      int gain = prob_.Inst(i)[s];
      for (int k = prob_.parent_off[i]; k < prob_.parent_off[i + 1]; ++k) {
        const int p = prob_.parent_idx[k];
        if (p < i) {
          gain += prob_.RightEdge(slot_[p], s);
        } else if (p == i) {
          gain += prob_.RightEdge(s, s);
        }
      }
      for (int k = prob_.child_off[i]; k < prob_.child_off[i + 1]; ++k) {
        const int c = prob_.child_idx[k];
        if (c < i) gain += prob_.RightEdge(s, slot_[c]);
      }
      slot_[i] = s;
      used_[s] = s > 0;
      Dfs(i + 1, score + gain);
      used_[s] = 0;
      slot_[i] = 0;
    }
  }

  const Problem& prob_;
  int nl_ = 0;
  int best_ = 0;
  std::vector<int> slot_;
  std::vector<uint8_t> used_;
  std::vector<int> ub_suffix_;
};

int BestMatched(const FlatPlan& left, const FlatPlan& right,
                const SmatchOptions& options, Workspace* ws) {
  ws->prob.Build(left, right);
  util::Rng rng(options.seed);
  int best = 0;
  for (int r = 0; r < std::max(1, options.restarts); ++r) {
    if (r == 0) {
      GreedyInit(ws->prob, &ws->climb);
    } else {
      RandomInit(ws->prob, &rng, &ws->climb);
    }
    best = std::max(best, HillClimb(ws->prob, options.max_passes, &ws->climb));
  }
  return best;
}

}  // namespace

FlatPlan Flatten(const plan::PlanNode& root) {
  FlatPlan flat;
  FlattenInto(root, -1, &flat);
  return flat;
}

SmatchScore Score(const FlatPlan& left, const FlatPlan& right,
                  const SmatchOptions& options) {
  if (left.types.empty() || right.types.empty()) {
    return MakeScore(0, left, right);
  }
  // The optimal matched-triple count is symmetric in its arguments; hill
  // climbing is not, so run both orientations and keep the better matching.
  Workspace& ws = ThreadWorkspace();
  const int best = std::max(BestMatched(left, right, options, &ws),
                            BestMatched(right, left, options, &ws));
  if (ws.climb.gain.capacity() > kMaxRetainedGainEntries) ws = Workspace();
  return MakeScore(best, left, right);
}

SmatchScore Score(const plan::PlanNode& left, const plan::PlanNode& right,
                  const SmatchOptions& options) {
  return Score(Flatten(left), Flatten(right), options);
}

SmatchScore ScoreExact(const FlatPlan& left, const FlatPlan& right) {
  if (left.types.empty() || right.types.empty()) {
    return MakeScore(0, left, right);
  }
  Problem prob;
  prob.Build(left, right);
  ExactSearch search(prob);
  return MakeScore(search.Run(), left, right);
}

SmatchScore ScoreExact(const plan::PlanNode& left,
                       const plan::PlanNode& right) {
  return ScoreExact(Flatten(left), Flatten(right));
}

}  // namespace qpe::smatch
