//go:build amd64 && !purego

#include "textflag.h"

// SSE2 panel kernels for the GEMM micro-kernels, plus the int8
// requantize epilogue. All four exported GEMM kernels funnel into these
// panels, and every panel vectorizes over INDEPENDENT OUTPUT COLUMNS
// only: one XMM lane owns one output element, the reduction dimension k
// advances scalar-wise through the loop. Per k
// step the float32 panels run exactly one MULPS and one ADDPS per
// accumulator register — the same multiply-then-add with per-operation
// IEEE rounding (no FMA) as the scalar reference — so each lane
// reproduces the ascending-k accumulation chain of generic.go bitwise.
// Lanes never sum across k (that would reassociate the float32 chain),
// which is also why no horizontal operations appear anywhere in this file.
//
// The int8 path is allowed one k-wise fusion the float panels are not:
// PMADDWL folds the pair a[p]·b[p][j] + a[p+1]·b[p+1][j] into one
// dual-MAC. int16 products of int8 operands are exact (|a·b| ≤ 16 384, a
// pair sum ≤ 32 768) and two's-complement int32 addition is associative
// even on wraparound, so the pairing is unobservable in the result. Its
// operands are widened once per call, not once per row of A: s8Widen8
// sign-extends A into pair dwords, s8PackB / s8PackBT8 pack B (or Bᵀ)
// into 16-column panels of interleaved int16 pairs, and s8Panels runs
// two rows of A per pass against each panel with PMADDWL and PADDL only.
//
// The int8 epilogue (rescaleRow8, quantizeRow8) is the one place lanes
// hold float32 values derived from int32: each lane requantizes one
// output element, again with no cross-lane operation, and rounds in the
// float32 domain with an exact remainder (REQUANT below; the argument is
// in doc.go).
//
// Register convention of the float32 panels:
//   DI  c panel pointer (first column of the current row)
//   SI  a row pointer
//   DX  b panel base (first column, row 0)
//   R8  remaining rows (m countdown)
//   R9  k
//   R10 b and c row stride in bytes
//   R12 a row stride in bytes
//   BX / CX row-local b / a cursors

// func f32Panel16(c, a, b *float32, m, k, n int)
TEXT ·f32Panel16(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	SHLQ $2, R10             // row stride of b and c, bytes
	MOVQ R9, R12
	SHLQ $2, R12             // row stride of a, bytes

f16Row:
	TESTQ R8, R8
	JZ    f16Done
	MOVUPS (DI), X0          // 16 accumulators, seeded from C
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVQ   DX, BX            // b cursor: row p of the panel
	MOVQ   SI, CX            // a cursor
	LEAQ   (SI)(R12*1), R13  // a row end

f16K:
	CMPQ   CX, R13
	JGE    f16KDone
	MOVSS  (CX), X4
	SHUFPS $0x00, X4, X4     // broadcast a[i][p]
	MOVUPS (BX), X5
	MOVUPS 16(BX), X6
	MOVUPS 32(BX), X7
	MOVUPS 48(BX), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	ADDQ   $4, CX
	ADDQ   R10, BX
	JMP    f16K

f16KDone:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   R10, DI
	ADDQ   R12, SI
	DECQ   R8
	JMP    f16Row

f16Done:
	RET

// func f32Panel8(c, a, b *float32, m, k, n int)
TEXT ·f32Panel8(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	SHLQ $2, R10
	MOVQ R9, R12
	SHLQ $2, R12

f8Row:
	TESTQ R8, R8
	JZ    f8Done
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVQ   DX, BX
	MOVQ   SI, CX
	LEAQ   (SI)(R12*1), R13

f8K:
	CMPQ   CX, R13
	JGE    f8KDone
	MOVSS  (CX), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (BX), X5
	MOVUPS 16(BX), X6
	MULPS  X4, X5
	MULPS  X4, X6
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDQ   $4, CX
	ADDQ   R10, BX
	JMP    f8K

f8KDone:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   R10, DI
	ADDQ   R12, SI
	DECQ   R8
	JMP    f8Row

f8Done:
	RET

// func f32Panel4(c, a, b *float32, m, k, n int)
TEXT ·f32Panel4(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	SHLQ $2, R10
	MOVQ R9, R12
	SHLQ $2, R12

f4Row:
	TESTQ R8, R8
	JZ    f4Done
	MOVUPS (DI), X0
	MOVQ   DX, BX
	MOVQ   SI, CX
	LEAQ   (SI)(R12*1), R13

f4K:
	CMPQ   CX, R13
	JGE    f4KDone
	MOVSS  (CX), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (BX), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	ADDQ   $4, CX
	ADDQ   R10, BX
	JMP    f4K

f4KDone:
	MOVUPS X0, (DI)
	ADDQ   R10, DI
	ADDQ   R12, SI
	DECQ   R8
	JMP    f4Row

f4Done:
	RET

// Int8 path: B is packed once per call into 16-column panels of int16
// pairs, then one panel kernel streams A against them.
//
// Panel layout (shared by S8 and S8NT): panel P covers output columns
// 16P..16P+15; pair q of the panel is 64 bytes holding, for each of the 16
// columns j, the int16 pair [b[2q][j], b[2q+1][j]] — exactly the operand
// PMADDWL wants against a broadcast [a[2q], a[2q+1]] dword. Panels are kp
// = ⌈k/2⌉ pairs long; an odd k pairs its last row with zero.

// func s8Widen8(dst *int16, src *int8, blocks int)
//
// Sign-extends blocks×8 int8 values to int16: the packed-A form, where
// each row's adjacent (a[2q], a[2q+1]) words are already the pair dword.
TEXT ·s8Widen8(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX

w8Loop:
	MOVQ      (SI), X0
	PUNPCKLBW X0, X0
	PSRAW     $8, X0
	MOVOU     X0, (DI)
	ADDQ      $8, SI
	ADDQ      $16, DI
	DECQ      CX
	JNZ       w8Loop
	RET

// PACK_PAIRS interleaves rows X0 (b_p) and X1 (b_p+1) into 16 word pairs
// at (DI) and advances DI by 64. Clobbers X0-X4.
#define PACK_PAIRS \
	MOVOU     X0, X2; \
	PUNPCKLBW X1, X2; \
	PUNPCKHBW X1, X0; \
	MOVOU     X2, X3; \
	PUNPCKLBW X3, X3; \
	PSRAW     $8, X3; \
	PUNPCKHBW X2, X2; \
	PSRAW     $8, X2; \
	MOVOU     X0, X4; \
	PUNPCKLBW X4, X4; \
	PSRAW     $8, X4; \
	PUNPCKHBW X0, X0; \
	PSRAW     $8, X0; \
	MOVOU     X3, (DI); \
	MOVOU     X2, 16(DI); \
	MOVOU     X4, 32(DI); \
	MOVOU     X0, 48(DI); \
	ADDQ      $64, DI

// func s8PackB(dst *int16, b *int8, k, n, np int)
//
// Packs the first np×16 columns of B (k×n, row-major) into panels. Per
// pair the two b rows are byte-interleaved (PUNPCK?BW), then each
// interleaved byte is sign-extended to a word (PUNPCK?BW with itself +
// PSRAW $8), which lands the [b_p[j], b_p+1[j]] pairs in column order
// (PACK_PAIRS).
TEXT ·s8PackB(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), DX
	MOVQ k+16(FP), R9
	MOVQ n+24(FP), R10       // b row stride, bytes
	MOVQ np+32(FP), R11

pbPanel:
	MOVQ DX, SI              // b cursor: row 0 of this panel's columns
	MOVQ R9, CX
	SHRQ $1, CX              // full pairs

pbPair:
	TESTQ CX, CX
	JZ    pbOdd
	MOVOU (SI), X0
	MOVOU (SI)(R10*1), X1
	PACK_PAIRS
	LEAQ  (SI)(R10*2), SI
	DECQ  CX
	JMP   pbPair

pbOdd:
	TESTQ $1, R9
	JZ    pbNext
	MOVOU (SI), X0
	PXOR  X1, X1             // zero partner row
	PACK_PAIRS

pbNext:
	ADDQ $16, DX
	DECQ R11
	JNZ  pbPanel
	RET

// func s8PackBT8(dst *int16, b *int8, k, np int)
//
// Packs Bᵀ for S8NT: B is n×k, so row j's adjacent bytes (b[j][2q],
// b[j][2q+1]) already form column j's pair q. Four B rows × 8 bytes are
// widened to four rows of four pair-dwords and transposed 4×4 (PUNPCK?LQ
// then PUNPCK?QDQ), giving four pairs of four columns each. Covers pairs
// [0, 4·⌊k/8⌋); the caller packs the remaining pairs.
TEXT ·s8PackBT8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), DX
	MOVQ k+16(FP), R8        // b row stride, bytes
	MOVQ np+24(FP), R11
	MOVQ R8, R13
	INCQ R13
	SHRQ $1, R13
	SHLQ $6, R13             // panel stride: kp × 64 bytes
	MOVQ R8, R9
	SHRQ $3, R9              // 8-byte chunks per row
	LEAQ (R8)(R8*2), R12     // 3k

ptPanel:
	MOVQ DX, BX              // row group base: b row 16P + 4g
	MOVQ DI, R10             // dst cursor: panel base + 16g
	MOVQ $4, R15

ptGroup:
	MOVQ BX, SI
	MOVQ R10, R14
	MOVQ R9, CX

ptChunk:
	MOVQ      (SI), X0
	MOVQ      (SI)(R8*1), X1
	MOVQ      (SI)(R8*2), X2
	MOVQ      (SI)(R12*1), X3
	PUNPCKLBW X0, X0
	PSRAW     $8, X0         // row 0: pairs q..q+3 as dwords
	PUNPCKLBW X1, X1
	PSRAW     $8, X1
	PUNPCKLBW X2, X2
	PSRAW     $8, X2
	PUNPCKLBW X3, X3
	PSRAW     $8, X3
	MOVOU      X0, X4
	PUNPCKLLQ  X1, X4        // [r0q0 r1q0 r0q1 r1q1]
	PUNPCKHLQ  X1, X0        // [r0q2 r1q2 r0q3 r1q3]
	MOVOU      X2, X5
	PUNPCKLLQ  X3, X5        // [r2q0 r3q0 r2q1 r3q1]
	PUNPCKHLQ  X3, X2        // [r2q2 r3q2 r2q3 r3q3]
	MOVOU      X4, X6
	PUNPCKLQDQ X5, X6        // pair q
	PUNPCKHQDQ X5, X4        // pair q+1
	MOVOU      X0, X7
	PUNPCKLQDQ X2, X7        // pair q+2
	PUNPCKHQDQ X2, X0        // pair q+3
	MOVOU      X6, (R14)
	MOVOU      X4, 64(R14)
	MOVOU      X7, 128(R14)
	MOVOU      X0, 192(R14)
	ADDQ       $8, SI
	ADDQ       $256, R14
	DECQ       CX
	JNZ        ptChunk

	LEAQ (BX)(R8*4), BX
	ADDQ $16, R10
	DECQ R15
	JNZ  ptGroup

	MOVQ R8, AX
	SHLQ $4, AX
	ADDQ AX, DX              // next 16 rows of B
	ADDQ R13, DI
	DECQ R11
	JNZ  ptPanel
	RET

// func s8Panels(c *int32, a, b *int16, m, kp, n, np int)
//
// Runs C += A·B over np packed panels. Rows of A go two at a time: per
// pair q both rows' [a[2q], a[2q+1]] dwords are broadcast (PSHUFL $0),
// the panel's four 16-byte B vectors are loaded once and PMADDWL'd
// against each row — 8 accumulators, 8 dual-MACs, 8 PADDLs per pair. An
// odd trailing row runs the same loop on 4 accumulators.
//
// Registers: DI c panel, CX c row, SI a row, BX a cursor, DX b panel,
// AX b cursor, R14 rows left, R15 pairs left, R10 c row stride, R12 a row
// stride, R13 b panel stride.
TEXT ·s8Panels(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ b+16(FP), DX
	MOVQ kp+32(FP), R9
	MOVQ n+40(FP), R10
	SHLQ $2, R10             // c row stride, bytes
	MOVQ np+48(FP), R11
	MOVQ R9, R12
	SHLQ $2, R12             // a row stride, bytes
	MOVQ R9, R13
	SHLQ $6, R13             // b panel stride, bytes

spPanel:
	MOVQ DI, CX
	MOVQ a+8(FP), SI
	MOVQ m+24(FP), R14

spRows2:
	CMPQ  R14, $2
	JLT   spRow1
	MOVOU (CX), X0           // row i: 16 int32 accumulators, seeded from C
	MOVOU 16(CX), X1
	MOVOU 32(CX), X2
	MOVOU 48(CX), X3
	MOVOU (CX)(R10*1), X4    // row i+1
	MOVOU 16(CX)(R10*1), X5
	MOVOU 32(CX)(R10*1), X6
	MOVOU 48(CX)(R10*1), X7
	MOVQ  SI, BX
	MOVQ  DX, AX
	MOVQ  R9, R15

spK2:
	MOVSS   (BX), X8
	PSHUFL  $0x00, X8, X8    // row i:   [a[2q], a[2q+1]] × 4
	MOVSS   (BX)(R12*1), X9
	PSHUFL  $0x00, X9, X9    // row i+1
	MOVOU   (AX), X10
	MOVOU   16(AX), X11
	MOVOU   32(AX), X12
	MOVOU   48(AX), X13
	MOVO    X10, X14
	PMADDWL X8, X14
	PADDL   X14, X0
	PMADDWL X9, X10
	PADDL   X10, X4
	MOVO    X11, X15
	PMADDWL X8, X15
	PADDL   X15, X1
	PMADDWL X9, X11
	PADDL   X11, X5
	MOVO    X12, X14
	PMADDWL X8, X14
	PADDL   X14, X2
	PMADDWL X9, X12
	PADDL   X12, X6
	MOVO    X13, X15
	PMADDWL X8, X15
	PADDL   X15, X3
	PMADDWL X9, X13
	PADDL   X13, X7
	ADDQ    $4, BX
	ADDQ    $64, AX
	DECQ    R15
	JNZ     spK2

	MOVOU X0, (CX)
	MOVOU X1, 16(CX)
	MOVOU X2, 32(CX)
	MOVOU X3, 48(CX)
	MOVOU X4, (CX)(R10*1)
	MOVOU X5, 16(CX)(R10*1)
	MOVOU X6, 32(CX)(R10*1)
	MOVOU X7, 48(CX)(R10*1)
	LEAQ  (CX)(R10*2), CX
	LEAQ  (SI)(R12*2), SI
	SUBQ  $2, R14
	JMP   spRows2

spRow1:
	TESTQ R14, R14
	JZ    spNext
	MOVOU (CX), X0
	MOVOU 16(CX), X1
	MOVOU 32(CX), X2
	MOVOU 48(CX), X3
	MOVQ  SI, BX
	MOVQ  DX, AX
	MOVQ  R9, R15

spK1:
	MOVSS   (BX), X8
	PSHUFL  $0x00, X8, X8
	MOVOU   (AX), X10
	MOVOU   16(AX), X11
	MOVOU   32(AX), X12
	MOVOU   48(AX), X13
	PMADDWL X8, X10
	PADDL   X10, X0
	PMADDWL X8, X11
	PADDL   X11, X1
	PMADDWL X8, X12
	PADDL   X12, X2
	PMADDWL X8, X13
	PADDL   X13, X3
	ADDQ    $4, BX
	ADDQ    $64, AX
	DECQ    R15
	JNZ     spK1

	MOVOU X0, (CX)
	MOVOU X1, 16(CX)
	MOVOU X2, 32(CX)
	MOVOU X3, 48(CX)

spNext:
	ADDQ $64, DI
	ADDQ R13, DX
	DECQ R11
	JNZ  spPanel
	RET

// Int8 epilogue: the two requantize rows. Both run Requantize's
// round/ReLU/clamp in the float32 domain, eight elements per pass, and
// match the scalar helper bit for bit on every float32 operand
// (requant_test.go sweeps the bit patterns; doc.go has the argument).
//
// Constant registers: X12 holds lo × 4 (0 or −127, loaded per row),
// REQUANT_CONSTS sets X13 = 127.0 × 4, X14 = 0.5 × 4, X15 = −0.5 × 4.
// X10/X11 hold the row's bias and multiplier (or divisor).

// REQUANT_CONSTS broadcasts the rounding constants. Clobbers AX.
#define REQUANT_CONSTS \
	MOVL   $0x42fe0000, AX; \
	MOVL   AX, X13; \
	SHUFPS $0x00, X13, X13; \
	MOVL   $0x3f000000, AX; \
	MOVL   AX, X14; \
	SHUFPS $0x00, X14, X14; \
	MOVL   $0xbf000000, AX; \
	MOVL   AX, X15; \
	SHUFPS $0x00, X15, X15

// REQUANT(c, t, r) rounds the four float32 lanes of c to int32 lanes of
// t with Requantize's semantics; clobbers c and r.
//  1. c == c is false only on NaN: AND with that mask zeroes NaN lanes.
//  2. MAXPS/MINPS clamp to [lo, 127] (no NaN is left to propagate).
//  3. CVTTPS2PL truncates toward zero: t.
//  4. r = c − float32(t) is exact: |c| < 1 gives t = 0, otherwise
//     c/2 ≤ t ≤ c (Sterbenz).
//  5. t += (r ≥ 0.5) − (r ≤ −0.5): half away from zero. A true compare
//     is an all-ones lane (−1), so it is subtracted to add one.
#define REQUANT(c, t, r) \
	MOVAPS    c, t; \
	CMPPS     t, t, $0; \
	ANDPS     t, c; \
	MAXPS     X12, c; \
	MINPS     X13, c; \
	CVTTPS2PL c, t; \
	CVTPL2PS  t, r; \
	SUBPS     r, c; \
	MOVAPS    c, r; \
	CMPPS     X14, r, $5; \
	PSUBL     r, t; \
	CMPPS     X15, c, $2; \
	PADDL     c, t

// func rescaleRow8(dst *int8, acc *int32, blocks int, bias int32, mult, lo float32)
//
// dst[i] = Requantize(float32(acc[i]+bias)·mult, lo) over blocks×8
// elements: PADDL wraps like Go's int32 add, CVTPL2PS and MULPS round
// like Go's float32(int32) conversion and float32 multiply.
TEXT ·rescaleRow8(SB), NOSPLIT, $0-36
	MOVQ   dst+0(FP), DI
	MOVQ   acc+8(FP), SI
	MOVQ   blocks+16(FP), CX
	MOVL   bias+24(FP), AX
	MOVL   AX, X10
	PSHUFL $0x00, X10, X10
	MOVSS  mult+28(FP), X11
	SHUFPS $0x00, X11, X11
	MOVL   lo+32(FP), AX
	MOVL   AX, X12
	SHUFPS $0x00, X12, X12
	REQUANT_CONSTS

rsLoop:
	MOVOU    (SI), X0
	MOVOU    16(SI), X1
	PADDL    X10, X0
	PADDL    X10, X1
	CVTPL2PS X0, X0
	CVTPL2PS X1, X1
	MULPS    X11, X0
	MULPS    X11, X1
	REQUANT(X0, X2, X4)
	REQUANT(X1, X3, X5)
	PACKSSLW X3, X2
	PACKSSWB X2, X2
	MOVQ     X2, (DI)
	ADDQ     $32, SI
	ADDQ     $8, DI
	DECQ     CX
	JNZ      rsLoop
	RET

// func quantizeRow8(dst *int8, x *float32, blocks int, scale, lo float32)
//
// dst[i] = Requantize(x[i]/scale, lo) over blocks×8 elements; DIVPS
// rounds like Go's float32 division.
TEXT ·quantizeRow8(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   blocks+16(FP), CX
	MOVSS  scale+24(FP), X11
	SHUFPS $0x00, X11, X11
	MOVL   lo+28(FP), AX
	MOVL   AX, X12
	SHUFPS $0x00, X12, X12
	REQUANT_CONSTS

qrLoop:
	MOVUPS   (SI), X0
	MOVUPS   16(SI), X1
	DIVPS    X11, X0
	DIVPS    X11, X1
	REQUANT(X0, X2, X4)
	REQUANT(X1, X3, X5)
	PACKSSLW X3, X2
	PACKSSWB X2, X2
	MOVQ     X2, (DI)
	ADDQ     $32, SI
	ADDQ     $8, DI
	DECQ     CX
	JNZ      qrLoop
	RET
