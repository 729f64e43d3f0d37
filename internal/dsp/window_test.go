package dsp

import (
	"math"
	"testing"
)

func TestWindows(t *testing.T) {
	h := Hann(9)
	if math.Abs(h[0]) > 1e-12 || math.Abs(h[8]) > 1e-12 {
		t.Errorf("Hann endpoints = %v, %v, want 0", h[0], h[8])
	}
	if math.Abs(h[4]-1) > 1e-12 {
		t.Errorf("Hann centre = %v, want 1", h[4])
	}
	if got := Hann(1); got[0] != 1 {
		t.Errorf("Hann(1) = %v, want [1]", got)
	}
}
