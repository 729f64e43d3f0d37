//go:build amd64 && !purego

#include "textflag.h"

// SSE2 panel kernels for the GEMM micro-kernels, plus the int8 packers
// and requantize epilogue. Every panel vectorizes over INDEPENDENT OUTPUT
// COLUMNS only: one XMM lane owns one output element, the reduction
// dimension k advances scalar-wise through the loop. Per k
// step the float32 panels run exactly one MULPS and one ADDPS per
// accumulator register — the same multiply-then-add with per-operation
// IEEE rounding (no FMA) as the scalar reference — so each lane
// reproduces the ascending-k accumulation chain of generic.go bitwise.
// Lanes never sum across k (that would reassociate the float32 chain),
// which is also why no horizontal operations appear anywhere in this file.
//
// The int8 path is allowed k-wise fusion the float panels are not:
// PMADDWL folds the pair a[p]·b[p][j] + a[p+1]·b[p+1][j] into one
// dual-MAC (and the VNNI kernels of avx_amd64.s fold four products).
// int16 products of int8 operands are exact (|a·b| ≤ 16 384, a pair sum
// ≤ 32 768) and two's-complement int32 addition is associative even on
// wraparound, so the fusion is unobservable in the result. Its operands
// are packed once, not once per row of A, in one of two layouts
// (panels.go): int16 pairs — s8Widen8 sign-extends A into pair dwords,
// s8PackRows / s8PackBT8 pack B (or Bᵀ) into 16-column panels of
// interleaved int16 pairs, and s8Panels runs two rows of A per pass
// against each panel with PMADDWL and PADDL only — or, for the VNNI
// kernels, byte quads packed by s8PackQuads, with s8Sum16 summing A's
// rows for their correction. avx_amd64.s (and vnni_amd64.s for
// AVX512_VNNI) holds the wider panel kernels and requantize rows that
// CPUs with AVX2 or VNNI run instead.
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

// Int8 pair layout: panel P covers output columns 16P..16P+15; pair q
// of the panel is 64 bytes holding, for each of the 16 columns j, the
// int16 pair [b[2q][j], b[2q+1][j]] — exactly the operand PMADDWL wants
// against a broadcast [a[2q], a[2q+1]] dword. Panels are kp = ⌈k/2⌉
// pairs long; an odd k pairs its last row with zero.

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
// at (DI) and advances DI by 64. Per pair the two b rows are
// byte-interleaved (PUNPCK?BW), then each interleaved byte is
// sign-extended to a word (PUNPCK?BW with itself + PSRAW $8), which lands
// the [b_p[j], b_p+1[j]] pairs in column order. Clobbers X0-X4.
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

// func s8PackBT8(dst *int16, b *int8, k, np int)
//
// Packs Bᵀ (PackBT, pair layout): B is n×k, so row j's adjacent bytes (b[j][2q],
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

// func s8PackRows(dst *int16, src *int8, offs *int, stride, pairs, kp, np int)
//
// Packs B into panels from rows anywhere in src: row p of B is
// src[offs[p] + j·stride] for the np×16 columns j (any offsets, e.g. one
// tap's shifted view of a padded input row, or plain row p·n of a dense
// B), and PACK_PAIRS writes rows 2q and 2q+1 as pair q of
// every panel. Pairs go outer, so the two source rows are read
// sequentially; panels are kp × 64 bytes apart. Stride 1 loads 16
// columns per row directly; stride 2 loads 32 bytes and keeps the even
// ones (PAND 0x00ff per word, then PACKUSWB, exact on 0..255).
TEXT ·s8PackRows(SB), NOSPLIT, $0-56
	MOVQ    dst+0(FP), R8
	MOVQ    src+8(FP), R9
	MOVQ    offs+16(FP), R10
	MOVQ    stride+24(FP), R14
	MOVQ    pairs+32(FP), R11
	MOVQ    kp+40(FP), R13
	SHLQ    $6, R13
	SUBQ    $64, R13         // panel stride less PACK_PAIRS's own advance
	MOVQ    np+48(FP), R12
	PCMPEQW X5, X5
	PSRLW   $8, X5           // 0x00ff per word

prPair:
	MOVQ (R10), SI
	ADDQ R9, SI              // row 2q
	MOVQ 8(R10), BX
	ADDQ R9, BX              // row 2q+1
	MOVQ R8, DI
	MOVQ R12, CX
	CMPQ R14, $2
	JEQ  prPanel2

prPanel1:
	MOVOU (SI), X0
	MOVOU (BX), X1
	PACK_PAIRS
	ADDQ  $16, SI
	ADDQ  $16, BX
	ADDQ  R13, DI
	DECQ  CX
	JNZ   prPanel1
	JMP   prNext

prPanel2:
	MOVOU    (SI), X0
	MOVOU    16(SI), X6
	PAND     X5, X0
	PAND     X5, X6
	PACKUSWB X6, X0
	MOVOU    (BX), X1
	MOVOU    16(BX), X7
	PAND     X5, X1
	PAND     X5, X7
	PACKUSWB X7, X1
	PACK_PAIRS
	ADDQ     $32, SI
	ADDQ     $32, BX
	ADDQ     R13, DI
	DECQ     CX
	JNZ      prPanel2

prNext:
	ADDQ $16, R10
	ADDQ $64, R8
	DECQ R11
	JNZ  prPair
	RET

// Quad-layout packers for the VNNI kernels (panels.go): bytes, not
// words, and each B byte offset by +128 (XOR 0x80) so VPDPBUSD can read
// it as unsigned. bias80 holds that 0x80 per byte.
DATA bias80<>+0(SB)/8, $0x8080808080808080
DATA bias80<>+8(SB)/8, $0x8080808080808080
GLOBL bias80<>(SB), RODATA|NOPTR, $16

// PACK_QUADS interleaves rows X0-X3 (b_4q … b_4q+3, 16 columns each)
// into the 16 column quads [u_4q[j], u_4q+1[j], u_4q+2[j], u_4q+3[j]] at
// (DI), u = b XOR 0x80 (X6): PUNPCK?BW pairs rows 0/1 and 2/3 per
// column, PUNPCK?WL joins the two pairs into the column's dword.
// Clobbers X0-X4.
#define PACK_QUADS \
	PXOR      X6, X0; \
	PXOR      X6, X1; \
	PXOR      X6, X2; \
	PXOR      X6, X3; \
	MOVOU     X0, X4; \
	PUNPCKLBW X1, X4; \
	PUNPCKHBW X1, X0; \
	MOVOU     X2, X1; \
	PUNPCKLBW X3, X1; \
	PUNPCKHBW X3, X2; \
	MOVOU     X4, X3; \
	PUNPCKLWL X1, X3; \
	PUNPCKHWL X1, X4; \
	MOVOU     X0, X1; \
	PUNPCKLWL X2, X1; \
	PUNPCKHWL X2, X0; \
	MOVOU     X3, (DI); \
	MOVOU     X4, 16(DI); \
	MOVOU     X1, 32(DI); \
	MOVOU     X0, 48(DI)

// EVEN16(r, x) loads the 16 even bytes of the 32 at (r) into x (PAND
// 0x00ff per word from X5, then PACKUSWB, exact on 0..255). Clobbers X7.
#define EVEN16(r, x) \
	MOVOU    (r), x; \
	MOVOU    16(r), X7; \
	PAND     X5, x; \
	PAND     X5, X7; \
	PACKUSWB X7, x

// func s8PackQuads(dst *uint8, src *int8, offs *int, stride, quads, kq, np int)
//
// The quad form of s8PackRows: rows 4q … 4q+3 of B, read from
// src[offs[p] + j·stride] for the np×16 columns j, become quad q of
// every panel. Quads go outer, so the four source rows are read
// sequentially; panels are kq × 64 bytes apart.
TEXT ·s8PackQuads(SB), NOSPLIT, $0-56
	MOVQ    dst+0(FP), R8
	MOVQ    src+8(FP), R9
	MOVQ    offs+16(FP), R10
	MOVQ    stride+24(FP), R14
	MOVQ    quads+32(FP), R11
	MOVQ    kq+40(FP), R13
	SHLQ    $6, R13          // panel stride, bytes
	MOVQ    np+48(FP), R12
	PCMPEQW X5, X5
	PSRLW   $8, X5           // 0x00ff per word
	MOVOU   bias80<>(SB), X6

pqQuad:
	MOVQ (R10), SI
	ADDQ R9, SI              // row 4q
	MOVQ 8(R10), BX
	ADDQ R9, BX              // row 4q+1
	MOVQ 16(R10), DX
	ADDQ R9, DX              // row 4q+2
	MOVQ 24(R10), AX
	ADDQ R9, AX              // row 4q+3
	MOVQ R8, DI
	MOVQ R12, CX
	CMPQ R14, $2
	JEQ  pqPanel2

pqPanel1:
	MOVOU (SI), X0
	MOVOU (BX), X1
	MOVOU (DX), X2
	MOVOU (AX), X3
	PACK_QUADS
	ADDQ  $16, SI
	ADDQ  $16, BX
	ADDQ  $16, DX
	ADDQ  $16, AX
	ADDQ  R13, DI
	DECQ  CX
	JNZ   pqPanel1
	JMP   pqNext

pqPanel2:
	EVEN16(SI, X0)
	EVEN16(BX, X1)
	EVEN16(DX, X2)
	EVEN16(AX, X3)
	PACK_QUADS
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DX
	ADDQ $32, AX
	ADDQ R13, DI
	DECQ CX
	JNZ  pqPanel2

pqNext:
	ADDQ $32, R10
	ADDQ $64, R8
	DECQ R11
	JNZ  pqQuad
	RET

// func s8Sum16(src *int8, blocks int) int32
//
// Sums blocks×16 int8 values for a quad row's correction: XOR 0x80 reads
// each as a + 128 unsigned, PSADBW against zero adds eight of them per
// 64-bit lane, and 128·16·blocks comes off the total at the end. The
// 64-bit sum is exact, so its low 32 bits are Go's wrapping int32 sum.
TEXT ·s8Sum16(SB), NOSPLIT, $0-20
	MOVQ  src+0(FP), SI
	MOVQ  blocks+8(FP), CX
	MOVQ  CX, DX
	SHLQ  $11, DX            // 128 × 16 per block
	MOVOU bias80<>(SB), X2
	PXOR  X1, X1
	PXOR  X3, X3

sumLoop:
	MOVOU  (SI), X0
	PXOR   X2, X0
	PSADBW X1, X0
	PADDQ  X0, X3
	ADDQ   $16, SI
	DECQ   CX
	JNZ    sumLoop
	PSHUFL $0x4e, X3, X0     // swap the two 64-bit lanes
	PADDQ  X0, X3
	MOVQ   X3, AX
	SUBQ   DX, AX
	MOVL   AX, ret+16(FP)
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
