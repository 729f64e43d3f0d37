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
// Every float layer has one form: ForwardBatch/BackwardBatch over
// (N, C, T) BatchTensors. Convolution and dense layers lower onto the
// blocked, register-unrolled GEMM micro-kernels of internal/gemm via
// im2col packing — the CMSIS-NN-style structure the paper's deployed int8
// kernels use — and the record builder, the estimator API, calibration
// and the trainer all run them. A single window is a batch of one:
// HRNet.EstimateHR is EstimateHRBatch at N = 1. The int8 network has only
// the batched form too. The per-window references are plain loops kept in
// the tests (ref_test.go and conv_equiv_test.go for float32,
// quantref_test.go for int8), which the batch pins compare against. Every
// window's float32 and int8 forward result is bitwise the same at any N
// and equal to those loops: the GEMMs accumulate each output element
// bias-seeded in ascending (channel, tap) order without reassociation,
// and the int8 ops use exact int32 arithmetic with the reference rescale
// expressions, so golden_test.go pins both int8 topologies' outputs bit
// for bit on whichever gemm kernel the host selects. Batched training
// additionally fuses the cross-worker gradient reduction and the Adam
// update into one parallel pass over parameter shards (Adam.StepFused).
//
// All layer and network instances reuse their activation arenas between
// calls, so none are safe for concurrent use; CloneForWorker/Clone
// produce worker copies sharing weights.
package tcn
