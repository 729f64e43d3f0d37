//go:build amd64 && !purego

#include "textflag.h"

// The AVX512_VNNI quad kernels: the panel product S8Panels runs on
// (s8QuadsVNNI, accumulate into int32 C) and the fused conv form
// S8Rescale runs on (s8RescaleVNNI, requantize into int8). Layouts are
// those of panels.go; doc.go has the exactness argument.
//
// One body, S8_QUADS_Z, serves both. A panel's 16 columns are one Z
// register and a pass covers two panels P and P+1: eight rows of A on
// sixteen accumulators Z0-Z15 (row r's panel P in Z2r, panel P+1 in
// Z2r+1), then a block of four rows (Z0-Z7) and single rows (Z0, Z1) for
// the m mod 8 tail, so every row keeps two independent chains. Per quad q
// the steps of both panels load once (Z16, Z17) and each row broadcasts
// its signed [a[4q], …, a[4q+3]] dword into a register (Z18-Z25) that
// both of its VPDPBUSD use; the unsigned B step is the vvvv operand.
// VPDPBUSD has a latency of several cycles, so a pass needs its sixteen
// independent chains to issue one every cycle. An odd last panel runs
// alone with the same row blocks on Z0-Z7.
//
// Each form fills the hooks: Z_SETUP (once), Z_MASKS2 and Z_MASK1 (per
// pass over two panels or one), SEED_ROWS and SEED2/SEED1 (before a
// block's k loop: row r of the block at byte offset 4r of the per-row
// arrays BX and R9 point into), FIN_ROWS and FIN2/FIN1 (after it), and
// PAIR_ADV, the output step of two panels.
//  - accumulate: the accumulators start from C plus the row's correction
//    and go back to C (R10 = ldc·4).
//  - rescale: the accumulators start from the correction plus the row's
//    bias, then REQUANT_Z rounds them and VPMOVDB narrows them into the
//    int8 output rows (R10 = ldc), each panel's 16 bytes stored under the
//    mask K4 (panel P) or K5 (panel P+1): all 16 columns except on the
//    last panel, which stores only its `last` columns.
// VPDPBUSD adds with int32 wraparound; the saturating VPDPBUSDS is never
// used.
//
// Registers: DI output panel, CX output row, SI a row, BX a cursor (rows
// 0-3), R9 a cursor (rows 4-7), DX b panel, AX b cursor (output row while
// seeding and finishing), R13 panel stride (steps·64), R15 quads left
// (row offset while seeding and finishing), R14 rows left, R11 panels
// left, R10 output row stride, R12 a row stride, R8 three a rows.

// MAC2 multiplies one row's broadcast quad into both panels' chains.
#define MAC2(arow, za, zb, bc) \
	VPBROADCASTD arow, bc; \
	VPDPBUSD     bc, Z16, za; \
	VPDPBUSD     bc, Z17, zb

// ROW_AT points reg at row i = m − R14 of the per-row array arg.
#define ROW_AT(arg, reg) \
	MOVQ m+24(FP), R15; \
	SUBQ R14, R15; \
	MOVQ arg, reg; \
	LEAQ (reg)(R15*4), reg

#define S8_QUADS_Z \
	MOVQ c+0(FP), DI; \
	MOVQ b+16(FP), DX; \
	MOVQ steps+32(FP), R12; \
	SHLQ $2, R12; \
	LEAQ (R12)(R12*2), R8; \
	MOVQ R12, R13; \
	SHLQ $4, R13; \
	MOVQ np+48(FP), R11; \
	Z_SETUP; \
zPair: \
	CMPQ R11, $2; \
	JLT  zOne; \
	Z_MASKS2; \
	MOVQ DI, CX; \
	MOVQ a+8(FP), SI; \
	MOVQ m+24(FP), R14; \
z8x2: \
	CMPQ      R14, $8; \
	JLT       z4x2; \
	SEED_ROWS; \
	SEED2(0, Z0, Z1); \
	SEED2(4, Z2, Z3); \
	SEED2(8, Z4, Z5); \
	SEED2(12, Z6, Z7); \
	SEED2(16, Z8, Z9); \
	SEED2(20, Z10, Z11); \
	SEED2(24, Z12, Z13); \
	SEED2(28, Z14, Z15); \
	MOVQ      SI, BX; \
	LEAQ      (SI)(R12*4), R9; \
	MOVQ      DX, AX; \
	MOVQ      steps+32(FP), R15; \
z8x2K: \
	VMOVDQU32 (AX), Z16; \
	VMOVDQU32 (AX)(R13*1), Z17; \
	MAC2((BX), Z0, Z1, Z18); \
	MAC2((BX)(R12*1), Z2, Z3, Z19); \
	MAC2((BX)(R12*2), Z4, Z5, Z20); \
	MAC2((BX)(R8*1), Z6, Z7, Z21); \
	MAC2((R9), Z8, Z9, Z22); \
	MAC2((R9)(R12*1), Z10, Z11, Z23); \
	MAC2((R9)(R12*2), Z12, Z13, Z24); \
	MAC2((R9)(R8*1), Z14, Z15, Z25); \
	ADDQ      $4, BX; \
	ADDQ      $4, R9; \
	ADDQ      $64, AX; \
	DECQ      R15; \
	JNZ       z8x2K; \
	FIN_ROWS; \
	FIN2(0, Z0, Z1); \
	FIN2(4, Z2, Z3); \
	FIN2(8, Z4, Z5); \
	FIN2(12, Z6, Z7); \
	FIN2(16, Z8, Z9); \
	FIN2(20, Z10, Z11); \
	FIN2(24, Z12, Z13); \
	FIN2(28, Z14, Z15); \
	LEAQ      (CX)(R10*8), CX; \
	LEAQ      (SI)(R12*8), SI; \
	SUBQ      $8, R14; \
	JMP       z8x2; \
z4x2: \
	CMPQ      R14, $4; \
	JLT       z1x2; \
	SEED_ROWS; \
	SEED2(0, Z0, Z1); \
	SEED2(4, Z2, Z3); \
	SEED2(8, Z4, Z5); \
	SEED2(12, Z6, Z7); \
	MOVQ      SI, BX; \
	MOVQ      DX, AX; \
	MOVQ      steps+32(FP), R15; \
z4x2K: \
	VMOVDQU32 (AX), Z16; \
	VMOVDQU32 (AX)(R13*1), Z17; \
	MAC2((BX), Z0, Z1, Z18); \
	MAC2((BX)(R12*1), Z2, Z3, Z19); \
	MAC2((BX)(R12*2), Z4, Z5, Z20); \
	MAC2((BX)(R8*1), Z6, Z7, Z21); \
	ADDQ      $4, BX; \
	ADDQ      $64, AX; \
	DECQ      R15; \
	JNZ       z4x2K; \
	FIN_ROWS; \
	FIN2(0, Z0, Z1); \
	FIN2(4, Z2, Z3); \
	FIN2(8, Z4, Z5); \
	FIN2(12, Z6, Z7); \
	LEAQ      (CX)(R10*4), CX; \
	LEAQ      (SI)(R12*4), SI; \
	SUBQ      $4, R14; \
z1x2: \
	TESTQ     R14, R14; \
	JZ        zPairNext; \
	SEED_ROWS; \
	SEED2(0, Z0, Z1); \
	MOVQ      SI, BX; \
	MOVQ      DX, AX; \
	MOVQ      steps+32(FP), R15; \
z1x2K: \
	VMOVDQU32 (AX), Z16; \
	VMOVDQU32 (AX)(R13*1), Z17; \
	MAC2((BX), Z0, Z1, Z18); \
	ADDQ      $4, BX; \
	ADDQ      $64, AX; \
	DECQ      R15; \
	JNZ       z1x2K; \
	FIN_ROWS; \
	FIN2(0, Z0, Z1); \
	ADDQ      R10, CX; \
	ADDQ      R12, SI; \
	DECQ      R14; \
	JMP       z1x2; \
zPairNext: \
	PAIR_ADV; \
	LEAQ (DX)(R13*2), DX; \
	SUBQ $2, R11; \
	JMP  zPair; \
zOne: \
	TESTQ R11, R11; \
	JZ    zDone; \
	Z_MASK1; \
	MOVQ  DI, CX; \
	MOVQ  a+8(FP), SI; \
	MOVQ  m+24(FP), R14; \
z8x1: \
	CMPQ          R14, $8; \
	JLT           z4x1; \
	SEED_ROWS; \
	SEED1(0, Z0); \
	SEED1(4, Z1); \
	SEED1(8, Z2); \
	SEED1(12, Z3); \
	SEED1(16, Z4); \
	SEED1(20, Z5); \
	SEED1(24, Z6); \
	SEED1(28, Z7); \
	MOVQ          SI, BX; \
	LEAQ          (SI)(R12*4), R9; \
	MOVQ          DX, AX; \
	MOVQ          steps+32(FP), R15; \
z8x1K: \
	VMOVDQU32     (AX), Z16; \
	VPDPBUSD.BCST (BX), Z16, Z0; \
	VPDPBUSD.BCST (BX)(R12*1), Z16, Z1; \
	VPDPBUSD.BCST (BX)(R12*2), Z16, Z2; \
	VPDPBUSD.BCST (BX)(R8*1), Z16, Z3; \
	VPDPBUSD.BCST (R9), Z16, Z4; \
	VPDPBUSD.BCST (R9)(R12*1), Z16, Z5; \
	VPDPBUSD.BCST (R9)(R12*2), Z16, Z6; \
	VPDPBUSD.BCST (R9)(R8*1), Z16, Z7; \
	ADDQ          $4, BX; \
	ADDQ          $4, R9; \
	ADDQ          $64, AX; \
	DECQ          R15; \
	JNZ           z8x1K; \
	FIN_ROWS; \
	FIN1(0, Z0); \
	FIN1(4, Z1); \
	FIN1(8, Z2); \
	FIN1(12, Z3); \
	FIN1(16, Z4); \
	FIN1(20, Z5); \
	FIN1(24, Z6); \
	FIN1(28, Z7); \
	LEAQ          (CX)(R10*8), CX; \
	LEAQ          (SI)(R12*8), SI; \
	SUBQ          $8, R14; \
	JMP           z8x1; \
z4x1: \
	CMPQ          R14, $4; \
	JLT           z1x1; \
	SEED_ROWS; \
	SEED1(0, Z0); \
	SEED1(4, Z1); \
	SEED1(8, Z2); \
	SEED1(12, Z3); \
	MOVQ          SI, BX; \
	MOVQ          DX, AX; \
	MOVQ          steps+32(FP), R15; \
z4x1K: \
	VMOVDQU32     (AX), Z16; \
	VPDPBUSD.BCST (BX), Z16, Z0; \
	VPDPBUSD.BCST (BX)(R12*1), Z16, Z1; \
	VPDPBUSD.BCST (BX)(R12*2), Z16, Z2; \
	VPDPBUSD.BCST (BX)(R8*1), Z16, Z3; \
	ADDQ          $4, BX; \
	ADDQ          $64, AX; \
	DECQ          R15; \
	JNZ           z4x1K; \
	FIN_ROWS; \
	FIN1(0, Z0); \
	FIN1(4, Z1); \
	FIN1(8, Z2); \
	FIN1(12, Z3); \
	LEAQ          (CX)(R10*4), CX; \
	LEAQ          (SI)(R12*4), SI; \
	SUBQ          $4, R14; \
z1x1: \
	TESTQ         R14, R14; \
	JZ            zDone; \
	SEED_ROWS; \
	SEED1(0, Z0); \
	MOVQ          SI, BX; \
	MOVQ          DX, AX; \
	MOVQ          steps+32(FP), R15; \
z1x1K: \
	VMOVDQU32     (AX), Z16; \
	VPDPBUSD.BCST (BX), Z16, Z0; \
	ADDQ          $4, BX; \
	ADDQ          $64, AX; \
	DECQ          R15; \
	JNZ           z1x1K; \
	FIN_ROWS; \
	FIN1(0, Z0); \
	ADDQ          R10, CX; \
	ADDQ          R12, SI; \
	DECQ          R14; \
	JMP           z1x1; \
zDone: \
	VZEROUPPER; \
	RET

// Accumulate: C rows at CX, the row's correction at off(BX).
#define Z_SETUP \
	MOVQ ldc+40(FP), R10; \
	SHLQ $2, R10
#define Z_MASKS2
#define Z_MASK1
#define SEED_ROWS \
	ROW_AT(corr+56(FP), BX); \
	MOVQ CX, AX
#define SEED2(off, za, zb) \
	VPBROADCASTD off(BX), Z18; \
	VPADDD       (AX), Z18, za; \
	VPADDD       64(AX), Z18, zb; \
	ADDQ         R10, AX
#define SEED1(off, za) \
	VPBROADCASTD off(BX), Z18; \
	VPADDD       (AX), Z18, za; \
	ADDQ         R10, AX
#define FIN_ROWS MOVQ CX, AX
#define FIN2(off, za, zb) \
	VMOVDQU32 za, (AX); \
	VMOVDQU32 zb, 64(AX); \
	ADDQ      R10, AX
#define FIN1(off, za) \
	VMOVDQU32 za, (AX); \
	ADDQ      R10, AX
#define PAIR_ADV ADDQ $128, DI

// func s8QuadsVNNI(c *int32, a *int8, b *uint8, m, steps, ldc, np int, corr *int32)
TEXT ·s8QuadsVNNI(SB), NOSPLIT, $0-64
	S8_QUADS_Z

#undef Z_SETUP
#undef Z_MASKS2
#undef Z_MASK1
#undef SEED_ROWS
#undef SEED2
#undef SEED1
#undef FIN_ROWS
#undef FIN2
#undef FIN1
#undef PAIR_ADV

// Rescale constants: 254.0 (float32) and 1 (int32).
DATA zRequantConsts<>+0(SB)/4, $0x437e0000
DATA zRequantConsts<>+4(SB)/4, $1
GLOBL zRequantConsts<>(SB), RODATA|NOPTR, $8

// REQUANT_Z(c, t) requantizes the sixteen seeded accumulators of c into
// int32 lanes of t on doubled values (doc.go has the argument):
// z = clamp(float32(c)·2mult, 2lo, 254) with 2mult in Z31, 2lo in Z26
// and 254.0 in Z27, u = the truncation of z, then the round half away
// from zero of z/2 is (u + 1 + (u >> 31)) >> 1 with arithmetic shifts
// (Z30 holds the int32 one). c is clobbered.
#define REQUANT_Z(c, t) \
	VCVTDQ2PS  c, c; \
	VMULPS     Z31, c, c; \
	VMAXPS     Z26, c, c; \
	VMINPS     Z27, c, c; \
	VCVTTPS2DQ c, t; \
	VPSRAD     $31, t, c; \
	VPADDD     c, t, t; \
	VPADDD     Z30, t, t; \
	VPSRAD     $1, t, t

// Rescale: int8 rows at CX, the row's correction at off(BX) and bias at
// off(R9) while seeding, its multiplier at off(BX) while finishing. K6
// holds all 16 columns, K7 the last panel's.
#define Z_SETUP \
	MOVQ         ldc+40(FP), R10; \
	VBROADCASTSS lo+88(FP), Z26; \
	VADDPS       Z26, Z26, Z26; \
	VBROADCASTSS zRequantConsts<>+0(SB), Z27; \
	VPBROADCASTD zRequantConsts<>+4(SB), Z30; \
	MOVL         $0xffff, AX; \
	KMOVW        AX, K6; \
	MOVQ         last+80(FP), CX; \
	MOVL         $1, AX; \
	SHLL         CX, AX; \
	DECL         AX; \
	KMOVW        AX, K7
#define Z_MASKS2 \
	KMOVW K6, K4; \
	KMOVW K6, K5; \
	CMPQ  R11, $2; \
	JNE   zFull; \
	KMOVW K7, K5; \
zFull:
#define Z_MASK1 KMOVW K7, K4
#define SEED_ROWS \
	ROW_AT(corr+56(FP), BX); \
	ROW_AT(bias+64(FP), R9)
#define SEED2(off, za, zb) \
	VPBROADCASTD off(BX), za; \
	VPADDD.BCST  off(R9), za, za; \
	VMOVDQA32    za, zb
#define SEED1(off, za) \
	VPBROADCASTD off(BX), za; \
	VPADDD.BCST  off(R9), za, za
#define FIN_ROWS \
	ROW_AT(mult+72(FP), BX); \
	MOVQ CX, AX
#define FIN2(off, za, zb) \
	VBROADCASTSS off(BX), Z31; \
	VADDPS       Z31, Z31, Z31; \
	REQUANT_Z(za, Z18); \
	REQUANT_Z(zb, Z19); \
	VPMOVDB      Z18, K4, (AX); \
	VPMOVDB      Z19, K5, 16(AX); \
	ADDQ         R10, AX
#define FIN1(off, za) \
	VBROADCASTSS off(BX), Z31; \
	VADDPS       Z31, Z31, Z31; \
	REQUANT_Z(za, Z18); \
	VPMOVDB      Z18, K4, (AX); \
	ADDQ         R10, AX
#define PAIR_ADV ADDQ $32, DI

// func s8RescaleVNNI(c *int8, a *int8, b *uint8, m, steps, ldc, np int, corr, bias *int32, mult *float32, last int, lo float32)
TEXT ·s8RescaleVNNI(SB), NOSPLIT, $0-92
	S8_QUADS_Z
