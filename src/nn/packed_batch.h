#ifndef QPE_NN_PACKED_BATCH_H_
#define QPE_NN_PACKED_BATCH_H_

#include <cstdint>
#include <vector>

#include "nn/tensor.h"
#include "nn/transformer.h"
#include "util/rng.h"

namespace qpe::nn {

// One parameter as the packed engine sees it: the values, and the autograd
// node gradients route through (null where nothing trains, as in the int8
// twin). The engine never owns weights: the fp32 encoder refreshes these
// pointers from its parameter tensors on every call (checkpoint loads
// replace value buffers, never the nodes), the quantized encoder points
// them at vectors it owns. Gradients resolve through GradPtr(impl) at
// backward time, so data-parallel shards under a GradientCapture
// accumulate into their private buffers exactly like the op-chain closures.
struct PackedParam {
  const float* v = nullptr;
  Tensor::Impl* impl = nullptr;
};

struct PackedLayerView {
  PackedParam norm1_gamma, norm1_beta, norm2_gamma, norm2_beta;
};

// One GEMM site: weight [in, out] row-major, bias [1, out].
struct PackedSiteView {
  PackedParam weight, bias;
};

// Everything the packed engine needs to know about a model, as plain
// dimensions and borrowed pointers. The forward reaches the GEMM weights
// only through its `linear` callback, which is how the same skeleton
// serves fp32, calibration-tap and int8 callers; `sites` holds the fp32
// weights for the fp32 callback and the backward, and stays empty in the
// int8 twin.
struct PackedModelView {
  int model_dim = 0;
  int ff_dim = 0;
  int num_heads = 0;
  int num_layers = 0;
  int level1_dim = 0;
  int level2_dim = 0;
  int level3_dim = 0;
  int output_dim = 0;  // == model_dim when has_projection is false
  bool has_projection = false;
  float dropout = 0.0f;
  PackedParam embed1;      // [vocab1, level1_dim]
  PackedParam embed2;      // [vocab2, level2_dim]
  PackedParam embed3;      // [vocab3, level3_dim]
  PackedParam positional;  // [max_len, model_dim]
  std::vector<PackedLayerView> layers;
  std::vector<PackedSiteView> sites;  // layer-major wq,wk,wv,wo,ff1,ff2;
                                      // projection last when present
};

// One layer's activations kept for the backward, row-major over the packed
// rows.
struct PackedLayerActs {
  std::vector<float> x;        // [rows, d] layer input
  std::vector<float> n1;       // [rows, d] norm1 output
  std::vector<float> q, k, v;  // [rows, d] attention projections
  std::vector<float> att;      // [rows, d] attention context
  std::vector<float> hm;       // [rows, d] post-attention residual
  std::vector<float> n2;       // [rows, d] norm2 output
  std::vector<float> ffa;      // [rows, f] ff1 ReLU output
  std::vector<float> mask_att, mask_ff;  // [rows, d] dropout multipliers
};

// Retain target of the packed forward (nn/packed_forward.h): where a
// training forward writes every activation and dropout mask
// PackedTrainBackward reads, plus the backward's own scratch. Buffers grow
// to the high-water shape and persist.
struct PackedRetain {
  std::vector<PackedLayerActs> layers;
  bool used_dropout = false;

  // --- backward scratch ---
  std::vector<float> d_h, d_tmp, d_att, d_q, d_k, d_v, d_n1, d_n2;  // [rows,d]
  std::vector<float> d_act, d_pre;  // [rows, f]
  std::vector<float> d_cls;         // [num_seqs, d]

  // Sizes the activation buffers for a batch of `layout` shape and, when
  // `rng` is non-null and mv.dropout > 0, draws the dropout masks. Masks
  // are drawn in caller plan order for a batch packed in reverse (caller
  // plan ci is sequence S-1-ci; see PackedTrainBackward), layer by layer,
  // attention mask before feed-forward mask, row-major within a plan —
  // the exact stream order of the per-plan Dropout ops. Defined beside
  // the backward, in nn/packed_train.cc.
  void Begin(const PackedModelView& mv, const BatchLayout& layout,
             util::Rng* rng);
};

// Reusable columnar workspace of the packed batch pipeline: the token-id
// and position columns batch assembly fills (struct-of-arrays, one column
// per embedding level), plus every activation matrix the engine writes
// and, for training, the retain target.
// All buffers grow to the high-water batch shape and then persist, so a
// steady-state micro-batch touches the heap zero times: the packer reuses
// the id columns and layout vectors, the engine reuses the activation
// matrices, and the quantized GEMM reuses the qx/row_scale scratch.
//
// One instance per thread via ThreadLocal(); nothing here is shared.
class PackedBatch {
 public:
  // --- filled by batch assembly (encoder::PackPlansColumns) ---
  std::vector<int> ids1, ids2, ids3;  // clamped token ids, one per row
  std::vector<int> lengths;           // per-plan token counts
  BatchLayout layout;                 // built in place, capacity reused

  // Bumped by every BeginBatch. A deferred backward compares it with the
  // value its forward saw: a repack overwrites the columns, the view and
  // the activations that backward would read.
  uint64_t generation = 0;

  // --- filled by the engine (nn/packed_forward.h) ---
  std::vector<float> h;       // [rows, d] hidden state
  std::vector<float> normed;  // [rows, d] layer-norm / GEMM output scratch
  std::vector<float> q, k, v;  // [rows, d] attention projections (inference)
  std::vector<float> kbt;      // [head][head_dim][rows] transposed keys
  std::vector<float> vb;       // [head][rows][head_dim] blocked values
  std::vector<float> ctx;      // [rows, d] attention context (inference)
  std::vector<float> ff;       // [rows, ff_dim] (inference)
  std::vector<float> cls;      // [num_seqs, d] pooled CLS rows
  std::vector<float> proj;     // [num_seqs, output_dim]
  std::vector<float> probs;    // max_len^2 attention-score scratch

  // --- quantized-linear scratch (QuantizedLinear::Forward) ---
  std::vector<int8_t> qx;
  std::vector<float> row_scale;

  // Model view the fp32 encoder refreshes per call (the quantized encoder
  // carries its own stable view instead).
  PackedModelView view;

  // Training activations; untouched by inference forwards.
  PackedRetain retain;

  // Clears the id columns, lengths, and layout while keeping every
  // buffer's capacity. Call once per micro-batch before packing.
  void BeginBatch();

  // Rebuilds `layout` from `lengths` in place, reusing the offsets /
  // lengths / positions capacity. Same validation as
  // BatchLayout::FromLengthsChecked, but aborts with its message.
  void BuildLayout();

  // Marks the end of packing: if any id/layout column had to reallocate
  // since BeginBatch, records one growth event (see TotalGrowthEvents).
  void FinishPack();

  // Grows a buffer to at least n elements, recording a growth event when
  // the capacity was insufficient.
  void EnsureF(std::vector<float>* buf, size_t n);

  static PackedBatch& ThreadLocal();

  // Process-wide count of workspace reallocation events. Flat across
  // steady-state micro-batches — the arena-steady-state test asserts the
  // delta is zero after warmup.
  static uint64_t TotalGrowthEvents();

 private:
  size_t PackCapacitySum() const;
  size_t pack_capacity_snapshot_ = 0;
};

}  // namespace qpe::nn

#endif  // QPE_NN_PACKED_BATCH_H_
