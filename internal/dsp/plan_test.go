package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n²) textbook reference the optimized plans are
// validated against.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			acc += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = acc
	}
	return out
}

func TestPlanRealFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 4, 8, 64, 256, 512} {
		x := make([]float64, n)
		full := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			full[i] = complex(x[i], 0)
		}
		want := naiveDFT(full)
		p := NewPlan(n)
		got := p.RealFFTInto(make([]complex128, n/2+1), x)
		if len(got) != n/2+1 {
			t.Fatalf("n=%d: got %d bins, want %d", n, len(got), n/2+1)
		}
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*(1+cmplx.Abs(want[k])) {
				t.Fatalf("n=%d bin %d: real plan %v, DFT %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestPlanPowerSpectrumMatchesFreeFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := make([]float64, 256)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	p := NewPlan(256)
	got := p.PowerSpectrumInto(make([]float64, 129), x)
	want := PowerSpectrum(x)
	if len(got) != len(want) {
		t.Fatalf("lengths %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+want[i]) {
			t.Fatalf("bin %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestPlanSizeMismatchPanics(t *testing.T) {
	p := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Error("RealFFTInto with a mismatched input length did not panic")
		}
	}()
	p.RealFFTInto(make([]complex128, 5), make([]float64, 4))
}

func TestPlanZeroAllocSteadyState(t *testing.T) {
	p := NewPlan(256)
	r := make([]float64, 256)
	spec := make([]complex128, 129)
	pow := make([]float64, 129)
	p.PowerSpectrumInto(pow, r) // warm the scratch buffer
	if n := testing.AllocsPerRun(100, func() { p.RealFFTInto(spec, r) }); n != 0 {
		t.Errorf("RealFFTInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.PowerSpectrumInto(pow, r) }); n != 0 {
		t.Errorf("PowerSpectrumInto allocates %v per run", n)
	}
}

// seedFFT is the pre-plan implementation kept as the benchmark baseline:
// it recomputes twiddles with cmplx.Exp on every call and allocates per
// transform, which is what the Plan API was introduced to eliminate.
func seedFFT(x []complex128) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

func seedPowerSpectrum(x []float64) []float64 {
	buf := make([]complex128, len(x))
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	seedFFT(buf)
	out := make([]float64, len(x)/2+1)
	for i := range out {
		re, im := real(buf[i]), imag(buf[i])
		out[i] = re*re + im*im
	}
	return out
}

func benchSignal(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) / 3)
	}
	return x
}

func BenchmarkRealFFT256Plan(b *testing.B) {
	p := NewPlan(256)
	x := benchSignal(256)
	dst := make([]complex128, 129)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RealFFTInto(dst, x)
	}
}

func BenchmarkPowerSpectrum256Plan(b *testing.B) {
	p := NewPlan(256)
	x := benchSignal(256)
	dst := make([]float64, 129)
	p.PowerSpectrumInto(dst, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PowerSpectrumInto(dst, x)
	}
}

func BenchmarkPowerSpectrum256Seed(b *testing.B) {
	x := benchSignal(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedPowerSpectrum(x)
	}
}

// TestPlanTablesSizedToWhatTransformsRead: a plan holds only the n/2-point
// FFT's permutation and stage twiddles plus the n/4 unpacking twiddles the
// real transform reads — no chain of smaller plans.
func TestPlanTablesSizedToWhatTransformsRead(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 256, 512} {
		p := NewPlan(n)
		m := n / 2
		if len(p.rev) != m || len(p.tw) != n/4 {
			t.Errorf("n=%d: rev %d, tw %d entries; want %d, %d", n, len(p.rev), len(p.tw), m, n/4)
		}
		wantStages := 0
		for size := 4; size <= m; size <<= 1 {
			wantStages++
		}
		if len(p.stages) != wantStages {
			t.Fatalf("n=%d: %d stage tables, want %d", n, len(p.stages), wantStages)
		}
		for s, tbl := range p.stages {
			if len(tbl) != (4<<s)/2 {
				t.Errorf("n=%d: stage %d has %d twiddles, want %d", n, s, len(tbl), (4<<s)/2)
			}
		}
	}
}
