// Package gemm provides the matrix-multiply micro-kernels the TCN batch
// inference and training paths lower onto: a float32 kernel pair (plain
// and B-transposed: F32, F32NT) and an int8 pair with int32 accumulators
// (S8, S8NT), the CMSIS-NN-style shape the deployed quantized path uses,
// plus that path's int8 requantize epilogue (Requantize, RescaleRow,
// QuantizeRow).
//
// All kernels are accumulate-in-place: C must be pre-initialized by the
// caller (bias rows, running gradients, or zeros) and each output element
// is updated as one sequential chain
//
//	c = ((c + a·b₀) + a·b₁) + … + a·b_{k-1}
//
// with the k products added one at a time in ascending-k order. That
// makes the float32 results bitwise identical to the scalar reference
// loops the rest of the repository keeps (bias-seeded, ascending-tap
// accumulation), so batched inference reproduces serial inference
// exactly; the int8 kernels are exact integer arithmetic and
// order-independent by construction.
//
// # SIMD dispatch
//
// On amd64 (unless built with -tags purego) the exported kernels dispatch
// to SSE2 panel kernels in gemm_amd64.s under one rule: vectorize over
// INDEPENDENT OUTPUT ELEMENTS, never over the reduction dimension. Each
// XMM lane owns one output column's accumulator; per k step the float32
// panels broadcast one A operand and run exactly one MULPS and one ADDPS
// per accumulator register — multiply-then-add with per-operation IEEE
// rounding, no FMA, no horizontal sums — so every lane walks the same
// ascending-k chain as the scalar loop and the results stay bitwise
// identical (fuzzed against the generic kernels across ragged shapes in
// fuzz_test.go). The float32 panels come 16-, 8- and 4-columns wide with
// sub-4 tails finished by the scalar loop.
//
// The int8 kernels pack once per call and then run one panel kernel. B
// is packed into 16-column panels of interleaved int16 pairs
// [b[2q][j], b[2q+1][j]] (⌈k/2⌉ × 64 bytes per panel) and A into rows of
// [a[2q], a[2q+1]] pair dwords, both with SIMD widening; the panel kernel
// then takes two rows of A per pass — 8 accumulators, the panel's four B
// vectors loaded once for both rows, PMADDWD dual-MACs and PADDD only. An
// odd k pairs its last element with zero; an odd trailing row runs on
// half the accumulators; columns past the last full panel are finished
// by the scalar loop. The k-pair fold is unobservable: int16 products of
// int8 operands are exact (a pair sums to at most 2·128² = 32 768, well
// inside int32) and two's-complement addition is associative.
//
// # Int8 epilogue
//
// After each S8 GEMM the quantized TCN path requantizes its int32
// accumulators to int8 with Requantize: clamp to [lo, 127] (lo = 0 under
// a fused ReLU, −127 otherwise) and round half away from zero, NaN to 0.
// RescaleRow does it for a row of accumulators, adding the channel's
// bias on the way (the GEMM runs on zeroed accumulators; two's-complement
// addition is associative, so adding the bias after equals seeding with
// it), and QuantizeRow for the network's float32 input. On amd64 both
// rows run eight lanes per pass in SSE2: PADDL, CVTPL2PS and MULPS (or
// DIVPS) are IEEE-identical to Go's int32 add, int32→float32 conversion
// and float32 multiply (divide), and the rounding stays in the float32
// domain. NaN lanes are zeroed with a c == c mask, MAXPS/MINPS clamp to
// [lo, 127], CVTTPS2PL truncates to t, and r = c − float32(t) is exact —
// t = 0 when |c| < 1, c/2 ≤ t ≤ c otherwise (Sterbenz) — so
// t + (r ≥ 0.5) − (r ≤ −0.5) is the round half away from zero of c
// itself, which Requantize computes in float64. PACKSSLW/PACKSSWB then
// narrow without saturating (|t| ≤ 127). Tails under eight elements and
// non-amd64 builds run the scalar loops over Requantize; requant_test.go
// pins the rows to it element by element (every float32 bit pattern at
// a stride of 251, the rounding ties, NaN payloads, wrapping biases),
// and an exhaustive 2³² × 2-floor sweep found no mismatch.
//
// F32NT reaches the float32 panels by packing B into a pooled k×n Bᵀ
// panel first (pack.go): the transpose changes which operand is
// contiguous, not the per-element reduction order, so bitwise equality
// carries over. S8NT needs no transpose: row j of B already holds column
// j's (b[j][2q], b[j][2q+1]) pairs, so it packs straight into the int16
// panels with a 4×4 dword transpose in registers. Both NT forms are gated
// on m ≥ ntPackMinM — below that the k·n pack cannot amortize and the
// scalar dot-product form is already the right shape. The layout is
// deliberately ISA-agnostic: an arm64 NEON port implements the same
// panels behind gemm_noasm.go's build tags without touching callers
// (float32 lanes carry the identical chain on any IEEE vector unit).
//
// Hot paths: the panel inner loops are the single hottest code in the
// repository — every Conv1D and Dense layer of both TCN topologies,
// float32 and int8, serial-equivalent batch inference and training
// backprop all funnel through them via im2col (internal/models/tcn),
// per-sample for TimePPG-Big and packed across the batch for
// TimePPG-Small's small panels (the cross-sample lowering; see
// tcn.crossSampleMaxPanel).
//
// BENCH kernels: GemmF32_48x144x128 and GemmS8_48x144x128 measure the raw
// kernels at a representative TimePPG-Big convolution shape,
// RequantS8_8192 the int8 epilogue over 8192 accumulators,
// GemmS8NT_28x2048x84 the TimePPG-Big head batched over 28 windows,
// GemmF32_8x24x{32,1024} and GemmS8_8x24x{32,1024} at the TimePPG-Small
// final-block shape per-sample and at the cross-sample width;
// TimePPG{Small,Big}ForwardBatch32/win and Quant{Small,Big}ForwardBatch32/win
// measure them through the full networks against the serial references
// (BENCH_*.json, written by chrisbench -json).
package gemm
