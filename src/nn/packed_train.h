#ifndef QPE_NN_PACKED_TRAIN_H_
#define QPE_NN_PACKED_TRAIN_H_

#include <cstdint>

#include "nn/packed_batch.h"

namespace qpe::nn {

// Hand-scheduled columnar backward of the packed forward
// (nn/packed_forward.h): consumes the activations a training forward wrote
// into ws.retain and replays the autograd op chain's gradient arithmetic
// through the dispatched simd::Kernels backward table.
//
// Bit-exactness contract: for a batch packed in REVERSE caller order (the
// autograd engine executes later-built sibling subtrees first, so caller
// plan ci is packed sequence S-1-ci), the forward activations and every
// gradient accumulated into the parameters are bit-identical — at every
// SIMD dispatch level — to running the per-plan op-chain forward/backward
// once per plan. The backward calls the same backward kernels in the op
// chain's reverse-topological order, and every per-memory-location
// accumulation sequence matches the per-plan order because the kernels
// accumulate rows in ascending packed order (= per-plan order under the
// reversed packing). Dropout masks are pre-drawn in caller plan order
// (PackedRetain::Begin) so the RNG consumption matches the per-plan path
// stream for stream.
//
// Accumulates parameter gradients (through GradPtr) for the upstream
// gradient `out_grad` [num_seqs, output_dim], reading the columns, the
// model view, ws.cls and ws.retain. `generation` must be the
// ws.generation its forward ran under; a workspace repacked since then
// aborts.
void PackedTrainBackward(PackedBatch& ws, const float* out_grad,
                         uint64_t generation);

}  // namespace qpe::nn

#endif  // QPE_NN_PACKED_TRAIN_H_
