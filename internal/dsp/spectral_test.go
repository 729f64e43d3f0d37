package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func sine(n int, f, fs float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f * float64(i) / fs)
	}
	return x
}

func TestDominantFrequencyPureTones(t *testing.T) {
	fs := 32.0
	for _, f := range []float64{0.8, 1.0, 1.5, 2.3, 3.1} {
		x := sine(256, f, fs)
		got := DominantFrequency(x, fs, 0.5, 4)
		if math.Abs(got-f) > 0.05 {
			t.Errorf("DominantFrequency(%v Hz) = %v", f, got)
		}
	}
}

func TestDominantFrequencyBandLimits(t *testing.T) {
	fs := 32.0
	// Strong out-of-band tone at 6 Hz plus weak in-band tone at 1.2 Hz.
	x := sine(256, 6, fs)
	weak := sine(256, 1.2, fs)
	for i := range x {
		x[i] = 2*x[i] + 0.3*weak[i]
	}
	got := DominantFrequency(x, fs, 0.5, 4)
	if math.Abs(got-1.2) > 0.1 {
		t.Errorf("band-limited dominant = %v, want 1.2", got)
	}
}

func TestDominantFrequencyNoisyTone(t *testing.T) {
	fs := 32.0
	rng := rand.New(rand.NewSource(4))
	x := sine(256, 1.7, fs)
	for i := range x {
		x[i] += 0.4 * rng.NormFloat64()
	}
	got := DominantFrequency(x, fs, 0.5, 4)
	if math.Abs(got-1.7) > 0.15 {
		t.Errorf("noisy dominant = %v, want 1.7", got)
	}
}

func TestDominantFrequencyEmptyBand(t *testing.T) {
	if got := DominantFrequency(sine(64, 1, 32), 32, 20, 30); got != 0 {
		t.Errorf("empty band = %v, want 0", got)
	}
}
