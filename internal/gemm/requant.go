package gemm

import "math"

// This file holds the int8 epilogue (see "Int8 epilogue" in doc.go): the
// scalar rounding step and the two row forms built on it. On amd64 the
// rows run eight elements per pass in gemm_amd64.s and finish the sub-8
// tail with the scalar loops in generic.go.

// Requantize is the one int8 rounding step of the quantized pipeline: it
// clamps x to [lo, 127] — lo = 0 under a fused ReLU, −127 otherwise — and
// rounds half away from zero. Every call site computes its own float32
// operand; only this round/ReLU/clamp tail is shared.
//
// It equals rounding first (math.Round), then applying the ReLU and the
// ±127 clamp, for every float32 x including ±Inf (NaN maps to 0 either
// way): rounding is monotone, so clamping before it changes nothing, and
// on the clamped range widening to float64 and adding ±0.5 is exact,
// which makes truncation a correct round-half-away-from-zero. The
// min/max/Copysign form compiles without branches.
func Requantize(x float32, lo float64) int8 {
	v := min(max(float64(x), lo), 127)
	return int8(v + math.Copysign(0.5, v))
}

// RescaleRow requantizes one row of int32 accumulators:
// dst[i] = Requantize(float32(acc[i]+bias)·mult, lo) for i < len(acc),
// the int32 sum wrapping like Go's. Folding the bias in here instead of
// seeding the accumulators with it is exact, since two's-complement
// addition is associative. lo must be 0 or −127.
func RescaleRow(dst []int8, acc []int32, bias int32, mult float32, lo float64) {
	dst = dst[:len(acc)]
	i := 0
	if haveAsmKernels {
		i = rescaleAsm(dst, acc, bias, mult, lo)
	}
	rescaleGeneric(dst[i:], acc[i:], bias, mult, lo)
}

// QuantizeRow quantizes a float32 row at the given scale:
// dst[i] = Requantize(x[i]/scale, −127) for i < len(x).
func QuantizeRow(dst []int8, x []float32, scale float32) {
	quantizeRow(dst, x, scale, -127)
}

// quantizeRow is QuantizeRow with the floor exposed, so tests can drive
// the input row at both floors the rescale row takes.
func quantizeRow(dst []int8, x []float32, scale float32, lo float64) {
	dst = dst[:len(x)]
	i := 0
	if haveAsmKernels {
		i = quantizeAsm(dst, x, scale, lo)
	}
	quantizeGeneric(dst[i:], x[i:], scale, lo)
}
