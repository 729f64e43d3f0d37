package dsp

import "math/bits"

// PowerSpectrum returns the one-sided power spectrum |X[k]|^2 of a real
// signal (len(x)/2+1 bins). len(x) must be a power of two. It is a thin
// wrapper over a shared, cached Plan; hot paths that transform many
// windows of one size should hold their own Plan and use its *Into
// methods.
func PowerSpectrum(x []float64) []float64 {
	spec := make([]complex128, len(x)/2+1)
	planFor(len(x)).RealFFTInto(spec, x)
	out := make([]float64, len(spec))
	for i, c := range spec {
		re, im := real(c), imag(c)
		out[i] = re*re + im*im
	}
	return out
}

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}
