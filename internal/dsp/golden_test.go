package dsp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// goldenInput is the seeded real signal the bitwise spectrum pins use.
func goldenInput(n int) []float64 {
	rng := rand.New(rand.NewSource(20230508))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// floatDigest hashes the little-endian math.Float64bits of v, so two
// slices share a digest only when every element matches bit for bit.
func floatDigest(v []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// complexDigest is floatDigest over the interleaved real and imaginary
// parts.
func complexDigest(v []complex128) string {
	f := make([]float64, 0, 2*len(v))
	for _, c := range v {
		f = append(f, real(c), imag(c))
	}
	return floatDigest(f)
}

// TestPlanSpectraBitwiseGolden pins RealFFTInto and PowerSpectrumInto at
// the two sizes the kernel ledger times (256 and 4096) to the exact bits
// the butterfly passes produced when the pin was recorded. Any change to
// the butterflies' operation order shows up here, not just in a tolerance
// check against the DFT.
func TestPlanSpectraBitwiseGolden(t *testing.T) {
	for _, tc := range []struct {
		n           int
		real, power string
	}{
		{256,
			"da1683fb9b5d9a57ef541d9794c2cdcc6e3672cef2266a08eba1af1d121c5f53",
			"b29586e2e0f7e6089edce80af0f16909844a5d0d68a9398025d59c1a22b727b9"},
		{4096,
			"73eb88720d9d37e50d155514827c00d5e4a2be1ac050786a9023d965dc13fa23",
			"25d8c41e6b84441c0c5f50233d537eb0eedb3a663faa3524f14511f2e2fdfb99"},
	} {
		x := goldenInput(tc.n)
		p := NewPlan(tc.n)
		if got := complexDigest(p.RealFFTInto(make([]complex128, tc.n/2+1), x)); got != tc.real {
			t.Errorf("n=%d RealFFTInto digest %s, want %s", tc.n, got, tc.real)
		}
		if got := floatDigest(p.PowerSpectrumInto(make([]float64, tc.n/2+1), x)); got != tc.power {
			t.Errorf("n=%d PowerSpectrumInto digest %s, want %s", tc.n, got, tc.power)
		}
	}
}
