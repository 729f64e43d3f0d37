// Package tcn implements the Temporal Convolutional Network substrate of
// the reproduction: tensors, dilated 1-D convolutions with full manual
// backpropagation, an Adam trainer, the TimePPG-Small and TimePPG-Big
// topologies of the paper (3 blocks × 3 convolutional layers, two dilated
// and one strided per block), post-training int8 quantization and a
// file format for trained weights.
//
// The paper trains its networks with PyTorch and quantization-aware
// training and deploys them with X-CUBE-AI / TFLite; this package replaces
// that tooling with a self-contained pure-Go pipeline (see DESIGN.md §1).
// Absolute accuracy differs from the paper, but the architecture — and
// therefore the parameter/operation counts feeding the energy models — is
// preserved, as is the accuracy ordering between the zoo models.
//
// # Inference paths
//
// Every float layer has two forms. The scalar path (Forward/Backward over
// C×T Tensors) is the reference: fused, allocation-free-after-warm-up
// kernels whose per-element accumulation order defines the numbers
// everything else must reproduce; the trainer's gradient checks and the
// calibration head run it. The batched path (ForwardBatch/
// BackwardBatch over (N, C, T) BatchTensors) lowers convolution and dense
// layers onto the blocked, register-unrolled GEMM micro-kernels of
// internal/gemm via im2col packing — the CMSIS-NN-style structure the
// paper's deployed int8 kernels use — and is how the record builder, the
// estimator API and the trainer actually run. A single-window
// HRNet.EstimateHR is a batch of one through it. The int8 network has
// only the batched form; its scalar kernels are kept in the tests
// (quantref_test.go) as the reference the batch pins compare against.
// Batched float32 and int8 forward results are bitwise identical to the
// scalar loops: the GEMMs accumulate each output element bias-seeded in
// ascending (channel, tap) order without reassociation, and the int8 ops
// use exact int32 arithmetic with the scalar rescale expressions.
// Batched training additionally fuses the cross-worker gradient reduction
// and the Adam update into one parallel pass over parameter shards
// (Adam.StepFused).
//
// All layer and network instances reuse their activation arenas between
// calls (scalar and batched arenas are separate), so none are safe for
// concurrent use; CloneForWorker/Clone produce worker copies sharing
// weights.
package tcn
