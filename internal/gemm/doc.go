// Package gemm provides the matrix-multiply micro-kernels the TCN batch
// inference and training paths lower onto: a float32 kernel pair (plain
// and B-transposed: F32, F32NT), an int8 panel product with int32
// accumulators on pre-packed operands (S8Panels, fed by PackA, PackBT and
// PackRows), the CMSIS-NN-style shape the deployed quantized path uses,
// plus that path's int8 requantize epilogue (Requantize, RescaleRow,
// QuantizeRow) and the int8 convolution's product and epilogue in one
// step (S8Rescale).
//
// All the GEMM kernels but S8Rescale are accumulate-in-place: C must be
// pre-initialized by the caller (bias rows, running gradients, or zeros)
// and each output element is updated as one sequential chain
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
// The int8 panel kernels come in two operand layouts (next section):
// int16 pairs for the kernels without VNNI, u8×s8 byte quads for the two
// VNNI kernels. Either way the panel kernel runs several rows of A per
// pass against each 16-column B panel, broadcasting a row's pair or quad
// dword and multiply-adding it against the panel's vector, one output
// column per int32 lane.
//
// The panel kernel is chosen once at init from CPUID and XGETBV (a small
// asm stub, cpu_amd64.s; the OS must save the register state a kernel
// uses), most preferred first:
//
//   - avx512vnni: VPDPBUSD on quads in Z registers — one row's 16
//     columns in one register, two panels by eight rows per pass (16
//     independent accumulator chains), each row's A quad broadcast once
//     for both panels, and the m mod 8 tail in a four-row block and
//     single rows that still keep two chains each (vnni_amd64.s);
//   - avxvnni: the VEX-encoded VPDPBUSD on quads in Y registers, four
//     rows per pass;
//   - avx2: VPMADDWD then VPADDD on pairs in Y registers, four rows per
//     pass;
//   - sse2: PMADDWL then PADDL on pairs in X registers, two rows per pass
//     (the GOAMD64=v1 baseline).
//
// There is no flag, environment variable or build tag; the tests force
// each kernel the host supports through the same parity suites and fuzz
// target (an unexported hook), and TestS8KernelSelection logs the kernel
// a run selected and the layout each kernel packs.
//
// # Packed int8 operands
//
// S8Panels multiplies a PackedA (A, m×k) by a Panels (B as np 16-column
// panels) into a C whose row stride may exceed 16·np, leaving the columns
// past the last panel untouched. A caller whose operand is constant packs
// it once: PackA for A (a convolution's weights), PackBT for B from its
// transpose (a dense layer's weight rows), zero-padded to whole panels so
// no column is left to a scalar tail. PackRows writes B panels from rows
// that sit anywhere in a buffer, read at stride 1 or 2 — the int8
// convolution's im2col, each row one tap's view of the zero-padded input
// — into any run of panels of a Panels that Resize sized, without first
// materializing the int8 im2col matrix. The operands own their storage
// and reuse it, so a steady-state pack allocates nothing. S8Rescale takes
// the same operands as S8Panels — B as groups of ⌈cols/16⌉ panels, one
// group per sample of a cross-sample im2col — and stores each group's
// product, requantized, into that sample's int8 rows (next section).
//
// Each operand is packed in the layout of the kernel selected when it was
// packed, and records it: S8Panels, S8Rescale and PackRows panic on an operand of
// the other layout, so a test that forces another kernel cannot misread
// a stale operand.
//
// Pairs (generic, sse2, avx2). A rows hold int16 pairs [a[2q], a[2q+1]],
// B panels the pairs [b[2q][j], b[2q+1][j]] of each column j (⌈k/2⌉ × 64
// bytes per panel); an odd k pairs its last element with zero. A pair
// multiply-add sums two int16 products of int8 operands: at most
// 2·128² = 32 768, exact in the int32 lane.
//
// Quads (avxvnni, avx512vnni). VPDPBUSD multiplies unsigned bytes of one
// operand by signed bytes of the other, four per lane, so B is stored
// offset: panels hold the quads [u[4q][j], …, u[4q+3][j]] with u = b + 128
// (b XOR 0x80) as unsigned bytes, the columns past n stored as u = 128
// (b = 0); A rows hold the signed quads [a[4q], …, a[4q+3]], zero-padded
// to a multiple of four — so B's rows past k multiply zeros and may hold
// anything (PackRows repeats a real row there) — and PackA stores each
// row's correction −128·Σₖ a[i][k].
// S8Panels seeds each row with its correction and then adds Σₖ a·u, and
//
//	−128·Σₖ a[i][k] + Σₖ a[i][k]·(b[k][j] + 128) = Σₖ a[i][k]·b[k][j]
//
// exactly in int32 wraparound arithmetic: each u8·s8 product (at most
// 255·128) and each quad sum fits an int32 lane, VPDPBUSD adds to the
// accumulator with wraparound, and two's-complement addition is
// associative, so the correction can come first. A padded column reads
// u = 128 on every row and gains 128·Σₖ a − 128·Σₖ a = 0. The same
// identity serves both int8 layers and both kernel forms: S8Rescale's
// store form seeds each row with its correction plus the channel's bias,
// and −128·Σₖ a + bias + Σₖ a·u = bias + Σₖ a·b in the same wraparound
// arithmetic, the sum RescaleRow rounds. A convolution's A is its weights,
// whose corrections PackA computes once at quantization; a dense layer's
// A is the activations, summed as PackA packs them. The saturating
// VPDPBUSDS and the int16-saturating VPMADDUBSW would break the identity
// and are never used, and without VNNI a u8·s8 quad has no exact
// multiply, which is why the other kernels keep pairs. The pair
// instructions obey the same rule: VPMADDWD/PMADDWL's pair sum never
// saturates, and the saturating VPDPWSSDS is never used.
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
// S8Rescale is the int8 convolution's product and epilogue in one step:
// per output element Requantize(float32(Σₖ a·b + bias)·mult, lo), the
// element expression of RescaleRow. Every kernel but avx512vnni runs it
// as that composition — S8Panels on zeroed accumulators on the stack,
// up to 16 rows by as many panels as fit, across the call's samples,
// then RescaleRow — which is also its reference. On avx512vnni the product's
// store form never writes an accumulator to memory: it seeds each row
// with its correction plus the bias (the identity above), and after the
// last quad rounds each Z register in place and narrows it with VPMOVDB
// straight into the sample's int8 row, the last panel of a row under a
// store mask of its cols mod 16 columns, so no byte past a row's end is
// written. Its rounding is exact on doubled values. With
// y = clamp(x, lo, 127) for x = float32(acc+bias)·mult, the kernel
// computes z = clamp(float32(acc+bias)·2mult, 2lo, 254): scaling by two
// commutes with float32 rounding, so z = 2y whenever x is a normal
// float, and when x is subnormal both y and z round to 0 below. With u
// the truncation of z (VCVTTPS2DQ), the round half away from zero of y
// is sign(u)·⌊(|u| + 1)/2⌋, because ⌊(|z| + 1)/2⌋ = ⌊(⌊|z|⌋ + 1)/2⌋ for
// integer halving; in two's complement that is (u + 1 + (u >> 31)) >> 1
// with arithmetic shifts, one kernel for both floors. A finite mult
// makes x finite or ±Inf, never NaN, and so does 2mult if
// |mult| ≤ 2¹²⁶; S8Rescale sends any other multiplier to the
// composition, which zeroes NaN. FuzzS8RescaleMatchesReference and
// TestS8RescaleRounding pin the two forms together byte for byte on
// every kernel the host supports, ties and wrapping seeds included.
//
// F32NT reaches the float32 panels by packing B into a pooled k×n Bᵀ
// panel first (pack.go): the transpose changes which operand is
// contiguous, not the per-element reduction order, so bitwise equality
// carries over. PackBT needs no transpose pass: row j of Bᵀ already holds
// column j's adjacent elements, so the pair form packs straight into the
// int16 panels with a 4×4 dword transpose in registers. F32NT is gated on
// m ≥ ntPackMinM — below that the k·n pack cannot amortize and the
// scalar dot-product form is already the right shape. The layouts are
// deliberately ISA-agnostic: an arm64 NEON port implements the same
// panels behind gemm_noasm.go's build tags without touching callers
// (float32 lanes carry the identical chain on any IEEE vector unit, and
// SDOT/USDOT multiply byte quads like VPDPBUSD).
//
// Hot paths: the panel inner loops are the single hottest code in the
// repository — every Conv1D and Dense layer of both TCN topologies,
// float32 and int8, serial-equivalent batch inference and training
// backprop all funnel through them via im2col (internal/models/tcn; the
// int8 layers pack their weights once at quantization and write their
// im2col straight into panels with PackRows, and the int8 convolutions
// requantize inside S8Rescale), per-sample for
// TimePPG-Big and packed across the batch for
// TimePPG-Small's small panels (the cross-sample lowering; see
// tcn.crossSampleMaxPanel).
//
// BENCH kernels: GemmF32_48x144x128 measures F32 at a representative
// TimePPG-Big convolution shape, GemmS8_48x144x128 the int8 product on
// the convolution's operands there (PackRows + S8Panels on weights
// packed once) and ConvS8_48x144x128 the int8 convolution's whole
// per-call step (PackRows + S8Rescale), RequantS8_8192 the int8
// epilogue over 8192 accumulators,
// GemmS8NT_28x2048x84 the TimePPG-Big head batched over 28 windows
// (PackA of the activations + S8Panels on PackBT weight panels),
// GemmF32_8x24x{32,1024} and GemmS8_8x24x{32,1024} the TimePPG-Small
// final-block shape per-sample and at the cross-sample width;
// TimePPG{Small,Big}ForwardBatch32/win and Quant{Small,Big}ForwardBatch32/win
// measure them through the full networks against the serial references
// (BENCH_*.json, written by chrisbench -json). BenchmarkS8Panels times
// the panel product and S8Rescale at TimePPG-Big's nine convolution
// shapes, and the product at its head batched over 28 and 32 windows, on
// every kernel the host supports.
package gemm
