package gemm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The requantize rows must equal Requantize element by element on every
// float32 operand. On amd64 that pins the SSE2 and AVX2 epilogues
// (float32-domain rounding) against the float64 scalar helper; under
// purego the rows are the scalar loops and the checks degrade to
// generic-vs-scalar.

// forEachRowWidth runs fn under each requantize row width the host has:
// the kernels past AVX2 differ only in the panel product, so they are
// skipped here.
func forEachRowWidth(fn func()) {
	forEachS8Kernel(func(k s8Kernel) {
		if k <= kernelAVX2 {
			fn()
		}
	})
}

var requantFloors = []float64{0, -127}

// guardByte fills dst past the row so a row that writes beyond its
// length is caught.
const guardByte = 0x5a

// checkQuantizeRow runs quantizeRow over x at every dst/src misalignment
// the offsets give and compares each element with Requantize(x[i]/scale).
func checkQuantizeRow(t *testing.T, x []float32, scale float32, lo float64, dstOff, srcOff int) {
	t.Helper()
	src := make([]float32, srcOff+len(x))
	copy(src[srcOff:], x)
	buf := make([]int8, dstOff+len(x)+8)
	for i := range buf {
		buf[i] = guardByte
	}
	dst := buf[dstOff : dstOff+len(x)]
	forEachRowWidth(func() {
		quantizeRow(dst, src[srcOff:], scale, lo)
		checkQuantized(t, dst, x, scale, lo)
	})
	for i, g := range buf[dstOff+len(x):] {
		if g != guardByte {
			t.Fatalf("quantizeRow wrote past its %d-element row at +%d", len(x), i)
		}
	}
}

func checkQuantized(t *testing.T, dst []int8, x []float32, scale float32, lo float64) {
	t.Helper()
	for i, v := range x {
		if want := Requantize(v/scale, lo); dst[i] != want {
			t.Fatalf("%v quantizeRow(x=%v (%#08x), scale=%v (%#08x), lo=%v) elem %d of %d = %d, want %d",
				s8Level, v, math.Float32bits(v), scale, math.Float32bits(scale), lo, i, len(x), dst[i], want)
		}
	}
}

// checkRescaleRow is the RescaleRow twin of checkQuantizeRow.
func checkRescaleRow(t *testing.T, acc []int32, bias int32, mult float32, lo float64, dstOff, srcOff int) {
	t.Helper()
	src := make([]int32, srcOff+len(acc))
	copy(src[srcOff:], acc)
	buf := make([]int8, dstOff+len(acc)+8)
	for i := range buf {
		buf[i] = guardByte
	}
	dst := buf[dstOff : dstOff+len(acc)]
	forEachRowWidth(func() {
		RescaleRow(dst, src[srcOff:], bias, mult, lo)
		for i, a := range acc {
			if want := Requantize(float32(a+bias)*mult, lo); dst[i] != want {
				t.Fatalf("%v RescaleRow(acc=%d, bias=%d, mult=%v (%#08x), lo=%v) elem %d of %d = %d, want %d",
					s8Level, a, bias, mult, math.Float32bits(mult), lo, i, len(acc), dst[i], want)
			}
		}
	})
	for i, g := range buf[dstOff+len(acc):] {
		if g != guardByte {
			t.Fatalf("RescaleRow wrote past its %d-element row at +%d", len(acc), i)
		}
	}
}

// TestRequantRowsBitPatternStride drives the rounding through every
// float32 bit pattern at a stride of 251 (≈17 M operands per floor): the
// input row divides by 1, which is exact, so each pattern reaches the
// rounding as is — NaN payloads, infinities and subnormals included.
func TestRequantRowsBitPatternStride(t *testing.T) {
	const stride, chunk = 251, 1 << 14
	x := make([]float32, 0, chunk)
	flush := func() {
		for _, lo := range requantFloors {
			checkQuantizeRow(t, x, 1, lo, 0, 0)
		}
		x = x[:0]
	}
	for bits := uint64(0); bits <= math.MaxUint32; bits += stride {
		x = append(x, math.Float32frombits(uint32(bits)))
		if len(x) == chunk {
			flush()
		}
	}
	flush()
}

// TestRequantRowsRoundingBoundaries covers every float32 within ±2 ulp of
// ±k and ±(k + 0.5) for k ∈ [0, 128]: the rounding ties, the truncation
// steps and the clamp edges at ±127, both through the input row (scale 1)
// and through the rescale row (odd accumulators times 0.5 land exactly on
// the ties).
func TestRequantRowsRoundingBoundaries(t *testing.T) {
	inf := float32(math.Inf(1))
	var x []float32
	for k := 0; k <= 128; k++ {
		for _, c := range []float32{float32(k), float32(k) + 0.5} {
			for _, v := range []float32{c, -c} {
				lo, hi := v, v
				for u := 0; u < 2; u++ {
					lo, hi = math.Nextafter32(lo, -inf), math.Nextafter32(hi, inf)
				}
				for w := lo; w <= hi; w = math.Nextafter32(w, inf) {
					x = append(x, w)
				}
			}
		}
	}
	var acc []int32
	for a := int32(-260); a <= 260; a++ {
		acc = append(acc, a)
	}
	for _, lo := range requantFloors {
		checkQuantizeRow(t, x, 1, lo, 0, 0)
		for _, mult := range []float32{0.5, 1, math.Nextafter32(0.5, 0), math.Nextafter32(0.5, 1)} {
			checkRescaleRow(t, acc, 0, mult, lo, 0, 0)
		}
	}
}

// TestRequantRowsSpecials covers NaN payloads (quiet and signalling, both
// signs), ±Inf, ±0 and subnormals as operands, and the divisors that
// turn ordinary operands into them (0, ±Inf, NaN, subnormal).
func TestRequantRowsSpecials(t *testing.T) {
	inf := float32(math.Inf(1))
	x := []float32{
		0, float32(math.Copysign(0, -1)), inf, -inf,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest subnormals
		math.MaxFloat32, -math.MaxFloat32, 0.5, -0.5, 127.5, -127.5, 1e-30, -3.7,
	}
	for _, bits := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fffffff, 0xffffffff, 0x7fa5a5a5} {
		x = append(x, math.Float32frombits(bits))
	}
	scales := []float32{1, 0.37, 0, float32(math.Copysign(0, -1)), inf, -inf, float32(math.NaN()),
		math.SmallestNonzeroFloat32, 1e30, -2}
	for _, lo := range requantFloors {
		for _, s := range scales {
			checkQuantizeRow(t, x, s, lo, 0, 0)
		}
	}
}

// TestRequantRowsTailsAndOffsets runs both rows over every length 0–39
// (every sub-8 tail after zero to four 8-blocks, so also the 16-blocks
// of the AVX2 rows followed by an 8-block) at dst offsets 0–7 and src
// offsets 0–3, so the unaligned loads and stores of every row start are
// exercised.
func TestRequantRowsTailsAndOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 0; n < 40; n++ {
		x := make([]float32, n)
		acc := make([]int32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64() * 80)
			acc[i] = int32(rng.Intn(1<<16) - 1<<15)
		}
		for _, lo := range requantFloors {
			for dstOff := 0; dstOff < 8; dstOff++ {
				for srcOff := 0; srcOff < 4; srcOff++ {
					checkQuantizeRow(t, x, 0.75, lo, dstOff, srcOff)
					checkRescaleRow(t, acc, -321, 0.0123, lo, dstOff, srcOff)
				}
			}
		}
	}
}

// TestRescaleRowWrappingBias pins the folded bias at the int32 extremes,
// where acc+bias wraps: the row must wrap exactly like Go's int32 add
// (PADDL), so folding the bias after the GEMM matches seeding with it.
func TestRescaleRowWrappingBias(t *testing.T) {
	ext := []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1, math.MaxInt32, -1, 0, 1}
	var acc []int32
	for _, a := range ext {
		for i := 0; i < 3; i++ {
			acc = append(acc, a)
		}
	}
	for _, bias := range ext {
		for _, mult := range []float32{1e-9, 5.9604645e-8, 1e-4, 0.5, 1, 3.7} {
			for _, lo := range requantFloors {
				checkRescaleRow(t, acc, bias, mult, lo, 0, 0)
			}
		}
	}
}

// FuzzRequantRow checks both rows against Requantize on arbitrary
// accumulator (or float32) bytes, bias, multiplier and divisor bits and
// floor; the byte count sets the row length, so the sub-8 tails and the
// unaligned row starts come from the fuzzer too.
func FuzzRequantRow(f *testing.F) {
	seed := make([]byte, 4*19)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, int32(-300), math.Float32bits(0.0371), math.Float32bits(0.05), false)
	f.Add(seed[:5], int32(math.MaxInt32), math.Float32bits(1), uint32(0x7fc00000), true)
	f.Add([]byte{}, int32(0), uint32(0), uint32(0), false)
	f.Fuzz(func(t *testing.T, raw []byte, bias int32, multBits, divBits uint32, relu bool) {
		lo := -127.0
		if relu {
			lo = 0
		}
		n := len(raw) / 4
		acc := make([]int32, n)
		x := make([]float32, n)
		for i := range acc {
			w := binary.LittleEndian.Uint32(raw[4*i:])
			acc[i] = int32(w)
			x[i] = math.Float32frombits(w)
		}
		off := len(raw) % 4
		checkRescaleRow(t, acc, bias, math.Float32frombits(multBits), lo, off, off%2)
		checkQuantizeRow(t, x, math.Float32frombits(divBits), lo, off, off%2)
	})
}

// requantBenchRow is the ledger's RequantS8_8192 shape: 8192 int32
// accumulators, about one TimePPG-Big conv layer's output per window.
const requantBenchRow = 8192

func benchRescaleRow(b *testing.B, row func(dst []int8, acc []int32, bias int32, mult float32, lo float64)) {
	rng := rand.New(rand.NewSource(13))
	acc := make([]int32, requantBenchRow)
	for i := range acc {
		acc[i] = int32(rng.Intn(1<<17) - 1<<16)
	}
	dst := make([]int8, requantBenchRow)
	b.ReportAllocs()
	b.SetBytes(requantBenchRow * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row(dst, acc, 77, 0.0013, 0)
	}
}

func BenchmarkQuantRescaleRow(b *testing.B) { benchRescaleRow(b, RescaleRow) }

// BenchmarkQuantRescaleRowScalar is the scalar loop the SIMD rows replace.
func BenchmarkQuantRescaleRowScalar(b *testing.B) { benchRescaleRow(b, rescaleGeneric) }

func BenchmarkQuantizeRow(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	x := make([]float32, requantBenchRow)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	dst := make([]int8, requantBenchRow)
	b.ReportAllocs()
	b.SetBytes(requantBenchRow * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantizeRow(dst, x, 0.031)
	}
}

// TestS8RescaleRounding drives S8Rescale's requantize through every
// int8 value of B offset by sweeps of biases (past the int32 wrap too),
// at multipliers that land on the ±0.5 ties, just beside them, past ±127
// and near zero, at both floors, and checks each byte against RescaleRow
// on the same sums. A is the single tap 1, so each accumulator is
// exactly one B value; m = 13 runs the 8-row, 4-row and single-row
// blocks.
func TestS8RescaleRounding(t *testing.T) {
	const m, k, np = 13, 1, PanelCols
	const cols = np * PanelCols
	a := make([]int8, m*k)
	for i := range a {
		a[i] = 1
	}
	src := make([]int8, cols)
	for j := range src {
		src[j] = int8(j - 128)
	}
	acc := make([]int32, cols)
	for j := range acc {
		acc[j] = int32(src[j])
	}
	mults := []float32{
		0.5, 0.25, 0.125, 1, 1.0 / 3, 0.1, 0.999999, 127.0 / 128, 1e-3, 3, -0.5, -0.1,
		math.Nextafter32(0.5, 1), math.Nextafter32(0.5, 0), 1e-30, 0x1p126, -0x1p126,
	}
	bases := []int32{-1100, -300, -129, 0, 127, 300, 1100, math.MaxInt32 - 1000, math.MinInt32 + 500}
	forEachS8Kernel(func(kern s8Kernel) {
		var pa PackedA
		var pb Panels
		PackA(&pa, a, m, k)
		pb.Resize(k, np)
		PackRows(&pb, 0, src, []int{0}, 1, np)
		got, want := make([]int8, m*cols), make([]int8, m*cols)
		bias, mult := make([]int32, m), make([]float32, m)
		for _, lo := range []float64{0, -127} {
			for _, mu := range mults {
				for _, base := range bases {
					for i := range m {
						bias[i], mult[i] = base+int32(i)*256, mu
						RescaleRow(want[i*cols:(i+1)*cols], acc, bias[i], mu, lo)
					}
					S8Rescale(got, cols, cols, &pa, &pb, bias, mult, lo)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v lo=%v mult=%v bias %d: row %d col %d = %d, RescaleRow %d",
								kern, lo, mu, bias[i/cols], i/cols, i%cols, got[i], want[i])
						}
					}
				}
			}
		}
	})
}
