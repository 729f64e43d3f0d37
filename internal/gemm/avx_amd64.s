//go:build amd64 && !purego

#include "textflag.h"

// The 256-bit int8 kernels the CPUID selection in cpu_amd64.go picks
// from: the panel product on Y registers (AVX2 on pairs, AVX-VNNI on
// quads) and the 16-lane requantize rows. The AVX512_VNNI kernels are in
// vnni_amd64.s. Layouts and results are those of panels.go; doc.go has
// the exactness argument of both layouts.
//
// 256-bit panel kernels. One body, S8_PANELS_Y, serves the two 256-bit
// kernels. A row of A is steps dwords (pairs or quads) and a panel step
// is 64 bytes in both layouts, so they differ only in three hooks: the
// multiply-accumulate step MACrh, for row r (0-3) of the current four and
// half h (L = columns 0-7, H = 8-15), and the row seeding CORR4/CORR1
// with its cursor LOAD_CORR. Rows 0 and 2 broadcast their A dword into
// Y10, rows 1 and 3 into Y11; the panel's step is Y8 (columns 0-7) and
// Y9 (8-15), the accumulators Y0-Y7 (row r in Y2r, Y2r+1).
//  - AVX2 (pairs): MACrh is VPMADDWD into a scratch register (Y12-Y15),
//    then VPADDD; the rows need no seeding.
//  - AVX-VNNI (quads): MACrh is one VEX-encoded VPDPBUSD, hand-encoded
//    (C4 C2 vvvv 50 ModRM; the assembler emits only the EVEX form, which
//    needs AVX512_VNNI — a separate CPUID bit). Its unsigned operand is
//    VEX.vvvv, so vvvv holds the B step (Y8/Y9) and ModRM.rm the signed
//    A broadcast (Y10/Y11). Each row is seeded with its correction.
// VPDPBUSD adds the four u8·s8 products and the accumulator with int32
// wraparound; the saturating VPDPBUSDS would not, and is never used. A
// trailing m mod 4 rows run one at a time on Y0, Y1 with MAC0L/MAC0H. No
// legacy-SSE instruction appears in a 256- or 512-bit kernel: on the
// reference host one SSE instruction with the upper register halves
// dirty cost microseconds per call.
//
// Registers: DI c panel, CX c row, SI a row, BX a cursor, DX b panel,
// AX b cursor (c row 2 while loading and storing), R15 steps left, R14
// rows left, R11 panels left, R10 c row stride, R12 a row stride, R8
// three a rows, R9 steps, R13 correction cursor (quads).
#define S8_PANELS_Y \
	MOVQ c+0(FP), DI; \
	MOVQ b+16(FP), DX; \
	MOVQ steps+32(FP), R9; \
	MOVQ ldc+40(FP), R10; \
	SHLQ $2, R10; \
	MOVQ np+48(FP), R11; \
	MOVQ R9, R12; \
	SHLQ $2, R12; \
	LEAQ (R12)(R12*2), R8; \
yPanel: \
	MOVQ DI, CX; \
	MOVQ a+8(FP), SI; \
	MOVQ m+24(FP), R14; \
	LOAD_CORR; \
yRows4: \
	CMPQ    R14, $4; \
	JLT     yRow1; \
	LEAQ    (CX)(R10*2), AX; \
	VMOVDQU (CX), Y0; \
	VMOVDQU 32(CX), Y1; \
	VMOVDQU (CX)(R10*1), Y2; \
	VMOVDQU 32(CX)(R10*1), Y3; \
	VMOVDQU (AX), Y4; \
	VMOVDQU 32(AX), Y5; \
	VMOVDQU (AX)(R10*1), Y6; \
	VMOVDQU 32(AX)(R10*1), Y7; \
	CORR4; \
	MOVQ    SI, BX; \
	MOVQ    DX, AX; \
	MOVQ    R9, R15; \
yK4: \
	VMOVDQU      (AX), Y8; \
	VMOVDQU      32(AX), Y9; \
	VPBROADCASTD (BX), Y10; \
	VPBROADCASTD (BX)(R12*1), Y11; \
	MAC0L; \
	MAC0H; \
	MAC1L; \
	MAC1H; \
	VPBROADCASTD (BX)(R12*2), Y10; \
	VPBROADCASTD (BX)(R8*1), Y11; \
	MAC2L; \
	MAC2H; \
	MAC3L; \
	MAC3H; \
	ADDQ         $4, BX; \
	ADDQ         $64, AX; \
	DECQ         R15; \
	JNZ          yK4; \
	LEAQ    (CX)(R10*2), AX; \
	VMOVDQU Y0, (CX); \
	VMOVDQU Y1, 32(CX); \
	VMOVDQU Y2, (CX)(R10*1); \
	VMOVDQU Y3, 32(CX)(R10*1); \
	VMOVDQU Y4, (AX); \
	VMOVDQU Y5, 32(AX); \
	VMOVDQU Y6, (AX)(R10*1); \
	VMOVDQU Y7, 32(AX)(R10*1); \
	LEAQ    (CX)(R10*4), CX; \
	LEAQ    (SI)(R12*4), SI; \
	SUBQ    $4, R14; \
	JMP     yRows4; \
yRow1: \
	TESTQ   R14, R14; \
	JZ      yNext; \
	VMOVDQU (CX), Y0; \
	VMOVDQU 32(CX), Y1; \
	CORR1; \
	MOVQ    SI, BX; \
	MOVQ    DX, AX; \
	MOVQ    R9, R15; \
yK1: \
	VMOVDQU      (AX), Y8; \
	VMOVDQU      32(AX), Y9; \
	VPBROADCASTD (BX), Y10; \
	MAC0L; \
	MAC0H; \
	ADDQ         $4, BX; \
	ADDQ         $64, AX; \
	DECQ         R15; \
	JNZ          yK1; \
	VMOVDQU Y0, (CX); \
	VMOVDQU Y1, 32(CX); \
	ADDQ    R10, CX; \
	ADDQ    R12, SI; \
	DECQ    R14; \
	JMP     yRow1; \
yNext: \
	ADDQ $64, DI; \
	MOVQ R9, AX; \
	SHLQ $6, AX; \
	ADDQ AX, DX; \
	DECQ R11; \
	JNZ  yPanel; \
	VZEROUPPER; \
	RET

// AVX-VNNI on quads: VEX.256.66.0F38.W0 50 /r with ModRM.reg = the
// accumulator, VEX.vvvv = B (Y8: 0x3D, Y9: 0x35), ModRM.rm = A
// (Y10/Y11, VEX.B set: 0xC2).
#define MAC0L BYTE $0xC4; BYTE $0xC2; BYTE $0x3D; BYTE $0x50; BYTE $0xC2
#define MAC0H BYTE $0xC4; BYTE $0xC2; BYTE $0x35; BYTE $0x50; BYTE $0xCA
#define MAC1L BYTE $0xC4; BYTE $0xC2; BYTE $0x3D; BYTE $0x50; BYTE $0xD3
#define MAC1H BYTE $0xC4; BYTE $0xC2; BYTE $0x35; BYTE $0x50; BYTE $0xDB
#define MAC2L BYTE $0xC4; BYTE $0xC2; BYTE $0x3D; BYTE $0x50; BYTE $0xE2
#define MAC2H BYTE $0xC4; BYTE $0xC2; BYTE $0x35; BYTE $0x50; BYTE $0xEA
#define MAC3L BYTE $0xC4; BYTE $0xC2; BYTE $0x3D; BYTE $0x50; BYTE $0xF3
#define MAC3H BYTE $0xC4; BYTE $0xC2; BYTE $0x35; BYTE $0x50; BYTE $0xFB

// The quad rows start from their corrections −128·Σₖ a[i][k], which
// cancel the +128 the B panels carry (doc.go).
#define LOAD_CORR MOVQ corr+56(FP), R13
#define CORR4 \
	VPBROADCASTD (R13), Y12; \
	VPBROADCASTD 4(R13), Y13; \
	VPBROADCASTD 8(R13), Y14; \
	VPBROADCASTD 12(R13), Y15; \
	VPADDD       Y12, Y0, Y0; \
	VPADDD       Y12, Y1, Y1; \
	VPADDD       Y13, Y2, Y2; \
	VPADDD       Y13, Y3, Y3; \
	VPADDD       Y14, Y4, Y4; \
	VPADDD       Y14, Y5, Y5; \
	VPADDD       Y15, Y6, Y6; \
	VPADDD       Y15, Y7, Y7; \
	ADDQ         $16, R13
#define CORR1 \
	VPBROADCASTD (R13), Y12; \
	VPADDD       Y12, Y0, Y0; \
	VPADDD       Y12, Y1, Y1; \
	ADDQ         $4, R13

// func s8QuadsAVXVNNI(c *int32, a *int8, b *uint8, m, steps, ldc, np int, corr *int32)
TEXT ·s8QuadsAVXVNNI(SB), NOSPLIT, $0-64
	S8_PANELS_Y

#undef MAC0L
#undef MAC0H
#undef MAC1L
#undef MAC1H
#undef MAC2L
#undef MAC2H
#undef MAC3L
#undef MAC3H
#undef LOAD_CORR
#undef CORR4
#undef CORR1

// AVX2 on pairs: no correction.
#define MAC0L VPMADDWD Y8, Y10, Y12; VPADDD Y12, Y0, Y0
#define MAC0H VPMADDWD Y9, Y10, Y13; VPADDD Y13, Y1, Y1
#define MAC1L VPMADDWD Y8, Y11, Y14; VPADDD Y14, Y2, Y2
#define MAC1H VPMADDWD Y9, Y11, Y15; VPADDD Y15, Y3, Y3
#define MAC2L VPMADDWD Y8, Y10, Y12; VPADDD Y12, Y4, Y4
#define MAC2H VPMADDWD Y9, Y10, Y13; VPADDD Y13, Y5, Y5
#define MAC3L VPMADDWD Y8, Y11, Y14; VPADDD Y14, Y6, Y6
#define MAC3H VPMADDWD Y9, Y11, Y15; VPADDD Y15, Y7, Y7
#define LOAD_CORR
#define CORR4
#define CORR1

// func s8PanelsAVX2(c *int32, a, b *int16, m, steps, ldc, np int)
TEXT ·s8PanelsAVX2(SB), NOSPLIT, $0-56
	S8_PANELS_Y


// Requantize rows, 16 elements per pass: REQUANT of gemm_amd64.s on Y
// registers, lane for lane the same IEEE operations (doc.go has the
// exactness argument). Constant registers: Y12 lo × 8, Y13 127.0 × 8,
// Y14 0.5 × 8, Y15 −0.5 × 8; Y10 the bias, Y11 the multiplier or divisor.
#define REQUANT_CONSTS_Y \
	VBROADCASTSS requantConsts<>+0(SB), Y13; \
	VBROADCASTSS requantConsts<>+4(SB), Y14; \
	VBROADCASTSS requantConsts<>+8(SB), Y15

DATA requantConsts<>+0(SB)/4, $0x42fe0000
DATA requantConsts<>+4(SB)/4, $0x3f000000
DATA requantConsts<>+8(SB)/4, $0xbf000000
GLOBL requantConsts<>(SB), RODATA|NOPTR, $12

#define REQUANT_Y(c, t, r) \
	VCMPPS     $0, c, c, t; \
	VANDPS     t, c, c; \
	VMAXPS     Y12, c, c; \
	VMINPS     Y13, c, c; \
	VCVTTPS2DQ c, t; \
	VCVTDQ2PS  t, r; \
	VSUBPS     r, c, c; \
	VCMPPS     $5, Y14, c, r; \
	VPSUBD     r, t, t; \
	VCMPPS     $2, Y15, c, c; \
	VPADDD     c, t, t

// NARROW16 packs the int32 lanes of Y2 (elements 0-7) and Y3 (8-15) to
// 16 int8 at (DI) without saturating (|t| ≤ 127): VPACKSSDW interleaves
// the two registers per 128-bit lane, VPERMQ restores element order.
#define NARROW16 \
	VPACKSSDW    Y3, Y2, Y2; \
	VPERMQ       $0xd8, Y2, Y2; \
	VEXTRACTI128 $1, Y2, X3; \
	VPACKSSWB    X3, X2, X2; \
	VMOVDQU      X2, (DI)

// func rescaleRow16(dst *int8, acc *int32, blocks int, bias int32, mult, lo float32)
TEXT ·rescaleRow16(SB), NOSPLIT, $0-36
	MOVQ         dst+0(FP), DI
	MOVQ         acc+8(FP), SI
	MOVQ         blocks+16(FP), CX
	LEAQ         bias+24(FP), AX
	VPBROADCASTD (AX), Y10
	VBROADCASTSS 4(AX), Y11
	VBROADCASTSS 8(AX), Y12
	REQUANT_CONSTS_Y

rs16Loop:
	VMOVDQU   (SI), Y0
	VMOVDQU   32(SI), Y1
	VPADDD    Y10, Y0, Y0
	VPADDD    Y10, Y1, Y1
	VCVTDQ2PS Y0, Y0
	VCVTDQ2PS Y1, Y1
	VMULPS    Y11, Y0, Y0
	VMULPS    Y11, Y1, Y1
	REQUANT_Y(Y0, Y2, Y4)
	REQUANT_Y(Y1, Y3, Y5)
	NARROW16
	ADDQ      $64, SI
	ADDQ      $16, DI
	DECQ      CX
	JNZ       rs16Loop
	VZEROUPPER
	RET

// func quantizeRow16(dst *int8, x *float32, blocks int, scale, lo float32)
TEXT ·quantizeRow16(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         blocks+16(FP), CX
	LEAQ         scale+24(FP), AX
	VBROADCASTSS (AX), Y11
	VBROADCASTSS 4(AX), Y12
	REQUANT_CONSTS_Y

qr16Loop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VDIVPS  Y11, Y0, Y0
	VDIVPS  Y11, Y1, Y1
	REQUANT_Y(Y0, Y2, Y4)
	REQUANT_Y(Y1, Y3, Y5)
	NARROW16
	ADDQ    $64, SI
	ADDQ    $16, DI
	DECQ    CX
	JNZ     qr16Loop
	VZEROUPPER
	RET
