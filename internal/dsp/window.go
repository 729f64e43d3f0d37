package dsp

import "math"

// Hann returns an n-point Hann window.
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// Hamming returns an n-point Hamming window.
func Hamming(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// ApplyWindow multiplies x element-wise by w into a new slice. The two
// slices must have the same length.
func ApplyWindow(x, w []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] * w[i]
	}
	return out
}
