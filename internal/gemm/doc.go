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
// to the panel kernels in gemm_amd64.s and avx_amd64.s under one rule:
// vectorize over INDEPENDENT OUTPUT ELEMENTS, never over the reduction
// dimension. Each vector lane owns one output column's accumulator; per k step the float32
// panels broadcast one A operand and run exactly one MULPS and one ADDPS
// per accumulator register — multiply-then-add with per-operation IEEE
// rounding, no FMA, no horizontal sums — so every lane walks the same
// ascending-k chain as the scalar loop and the results stay bitwise
// identical (fuzzed against the generic kernels across ragged shapes in
// fuzz_test.go). The float32 panels come 16-, 8- and 4-columns wide with
// sub-4 tails finished by the scalar loop.
//
// The int8 kernels multiply int16 pair panels. B is packed into
// 16-column panels of interleaved int16 pairs [b[2q][j], b[2q+1][j]]
// (⌈k/2⌉ × 64 bytes per panel) and A into rows of [a[2q], a[2q+1]] pair
// dwords; the panel kernel then runs several rows of A per pass against
// each panel, broadcasting a row's pair dword and multiply-adding it
// against the panel's pair vector. An odd k pairs its last element with
// zero. The k-pair fold is unobservable: int16 products of int8 operands
// are exact (a pair sums to at most 2·128² = 32 768, well inside int32)
// and two's-complement addition is associative.
//
// The panel kernel is chosen once at init from CPUID and XGETBV (a small
// asm stub, cpu_amd64.s; the OS must save the register state a kernel
// uses), most preferred first:
//
//   - avx512vnni: VPDPWSSD on Z registers — one row's 16 columns in one
//     register, eight rows per pass, A broadcast by the instruction;
//   - avxvnni: the VEX-encoded VPDPWSSD on Y registers, four rows per
//     pass;
//   - avx2: VPMADDWD then VPADDD on Y registers, four rows per pass;
//   - sse2: PMADDWL then PADDL on X registers, two rows per pass (the
//     GOAMD64=v1 baseline).
//
// VPDPWSSD adds both pair products to the accumulator with int32
// wraparound, which is exactly PMADDWL/VPMADDWD followed by an int32 add
// (the pair sum itself never wraps); the saturating VPDPWSSDS would
// differ and is never used. So every kernel is exact-integer equal to
// the scalar loop. There is no flag, environment variable or build tag;
// the tests force each kernel the host supports through the same parity
// suites and fuzz targets (an unexported hook), and
// TestS8KernelSelection logs the kernel a run selected.
//
// # Packed int8 operands
//
// A caller whose operand is constant packs it once (panels.go): PackA
// widens A into pair rows and PackBT packs B from its transpose (a dense
// layer's weight rows) into panels zero-padded to a multiple of 16
// columns, so no column is left to a scalar tail. PackRows builds B panels from rows
// that sit anywhere in a buffer, read at stride 1 or 2 — the int8
// convolution's im2col, each row one tap's view of the zero-padded input
// — without first materializing the int8 im2col matrix. S8Panels then
// multiplies pre-packed A by np panels into a C whose row stride may
// exceed 16·np, leaving the columns past the last panel untouched. S8
// and S8NT are the per-call form of the same API: they pack A with
// PackA and the first ⌊n/16⌋ panels of B with PackRows (PackBT for
// S8NT) into pooled scratch on every call, run S8Panels, and finish the
// remaining columns with the scalar loop. No TCN layer calls them.
//
// # Int8 epilogue
//
// After each int8 GEMM the quantized TCN path requantizes its int32
// accumulators to int8 with Requantize: clamp to [lo, 127] (lo = 0 under
// a fused ReLU, −127 otherwise) and round half away from zero, NaN to 0.
// RescaleRow does it for a row of accumulators, adding the channel's
// bias on the way (the GEMM runs on zeroed accumulators; two's-complement
// addition is associative, so adding the bias after equals seeding with
// it), and QuantizeRow for the network's float32 input. On amd64 both
// rows run sixteen lanes per pass on Y registers where the selected
// kernel is AVX2 or wider, and eight lanes per pass in SSE2 otherwise
// and for a remaining 8-block; the two widths perform the same per-lane
// operations. In SSE2 terms: PADDL, CVTPL2PS and MULPS (or
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
// j's (b[j][2q], b[j][2q+1]) pairs, so PackBT packs straight into the
// int16 panels with a 4×4 dword transpose in registers. Both NT forms are gated
// on m ≥ ntPackMinM — below that the k·n pack cannot amortize and the
// scalar dot-product form is already the right shape. The layout is
// deliberately ISA-agnostic: an arm64 NEON port implements the same
// panels behind gemm_noasm.go's build tags without touching callers
// (float32 lanes carry the identical chain on any IEEE vector unit).
//
// Hot paths: the panel inner loops are the single hottest code in the
// repository — every Conv1D and Dense layer of both TCN topologies,
// float32 and int8, serial-equivalent batch inference and training
// backprop all funnel through them via im2col (internal/models/tcn; the
// int8 layers pack their weights once at quantization and write their
// im2col straight into pair panels with PackRows), per-sample for
// TimePPG-Big and packed across the batch for
// TimePPG-Small's small panels (the cross-sample lowering; see
// tcn.crossSampleMaxPanel).
//
// BENCH kernels: GemmF32_48x144x128 and GemmS8_48x144x128 measure F32
// and S8 (per-call packing included) at a representative TimePPG-Big
// convolution shape,
// RequantS8_8192 the int8 epilogue over 8192 accumulators,
// GemmS8NT_28x2048x84 S8NT at the TimePPG-Big head shape batched over
// 28 windows,
// GemmF32_8x24x{32,1024} and GemmS8_8x24x{32,1024} at the TimePPG-Small
// final-block shape per-sample and at the cross-sample width;
// TimePPG{Small,Big}ForwardBatch32/win and Quant{Small,Big}ForwardBatch32/win
// measure them through the full networks against the serial references
// (BENCH_*.json, written by chrisbench -json).
package gemm
