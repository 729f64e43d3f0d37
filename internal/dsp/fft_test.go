package dsp

import (
	"math"
	"testing"
)

func TestRealFFTAndPowerSpectrum(t *testing.T) {
	n := 128
	fs := 32.0
	f0 := 2.0 // bin 8
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f0 * float64(i) / fs)
	}
	p := PowerSpectrum(x)
	if len(p) != n/2+1 {
		t.Fatalf("PowerSpectrum length = %d, want %d", len(p), n/2+1)
	}
	best := 0
	for k := range p {
		if p[k] > p[best] {
			best = k
		}
	}
	if best != 8 {
		t.Errorf("dominant bin = %d, want 8", best)
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FFT plan of length 3 did not panic")
		}
	}()
	NewPlan(3)
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 255: 256, 256: 256, 257: 512}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
