package tcn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gemm"
)

// refClampI8 and refRequantize are the round-then-clamp reference the
// int8 pipeline used before gemm.Requantize: math.Round (half away from
// zero) in float64, back to float32, the fused ReLU, then the ±127 clamp.
func refClampI8(v float32) int8 {
	if v > 127 {
		return 127
	}
	if v < -127 {
		return -127
	}
	return int8(v)
}

func refRequantize(x float32, relu bool) int8 {
	v := float32(math.Round(float64(x)))
	if relu && v < 0 {
		v = 0
	}
	return refClampI8(v)
}

func checkRequantize(t *testing.T, x float32) {
	t.Helper()
	for _, relu := range []bool{false, true} {
		if got, want := gemm.Requantize(x, reluFloor(relu)), refRequantize(x, relu); got != want {
			t.Fatalf("Requantize(%v (%#08x), relu=%v) = %d, want %d", x, math.Float32bits(x), relu, got, want)
		}
	}
}

func TestRequantizeMatchesReferenceBoundaries(t *testing.T) {
	inf := float32(math.Inf(1))
	xs := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 127, -127, 128, -128,
		float32(math.NaN()), inf, -inf, math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	}
	for _, h := range []float32{0.5, 1.5, 126.5, 127.5} {
		for _, x := range []float32{h, -h} {
			xs = append(xs, x, math.Nextafter32(x, -inf), math.Nextafter32(x, inf))
		}
	}
	for _, x := range xs {
		checkRequantize(t, x)
	}
}

// TestRequantizeMatchesReferenceAccExtremes drives the rescale sites'
// own expression, float32(acc)·mult, at the int32 accumulator extremes.
func TestRequantizeMatchesReferenceAccExtremes(t *testing.T) {
	for _, acc := range []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32, -1, 0, 1} {
		for _, mult := range []float32{1e-9, 5.9604645e-8, 1e-4, 0.0371, 0.5, 1, 3.7} {
			checkRequantize(t, float32(acc)*mult)
		}
	}
}

func TestRequantizeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		acc := int32(rng.Uint32())
		if i%2 == 0 {
			acc >>= uint(rng.Intn(31)) // favour the in-range magnitudes
		}
		mult := float32(math.Exp(rng.Float64()*30 - 25))
		checkRequantize(t, float32(acc)*mult)
	}
}

// FuzzRequantize checks gemm.Requantize against the reference over
// arbitrary float32 bit patterns — NaNs, infinities and subnormals
// included.
func FuzzRequantize(f *testing.F) {
	for _, x := range []float32{0.5, -0.5, 126.5, -127.5, 0.49999997, -2.1474836e9} {
		f.Add(math.Float32bits(x))
	}
	f.Add(uint32(0x7fc00000)) // NaN
	f.Add(uint32(0xff800000)) // -Inf
	f.Fuzz(func(t *testing.T, bits uint32) {
		checkRequantize(t, math.Float32frombits(bits))
	})
}
