package dsp

import "math"

// Periodogram returns the Hann-windowed one-sided power spectrum of x and
// the frequency resolution (Hz per bin). len(x) is zero-padded to the next
// power of two.
func Periodogram(x []float64, fs float64) (power []float64, binHz float64) {
	n := NextPow2(len(x))
	buf := make([]float64, n)
	w := hannFor(len(x))
	for i, v := range x {
		buf[i] = v * w[i]
	}
	return PowerSpectrum(buf), fs / float64(n)
}

// DominantFrequency returns the frequency (Hz) of the strongest spectral
// component of x within [fLo, fHi], refined with quadratic (parabolic)
// interpolation around the winning bin. It returns 0 when the band is empty.
func DominantFrequency(x []float64, fs, fLo, fHi float64) float64 {
	power, binHz := Periodogram(x, fs)
	lo := int(math.Ceil(fLo / binHz))
	hi := int(math.Floor(fHi / binHz))
	if lo < 1 {
		lo = 1
	}
	if hi >= len(power) {
		hi = len(power) - 1
	}
	if hi < lo {
		return 0
	}
	best := lo
	for k := lo + 1; k <= hi; k++ {
		if power[k] > power[best] {
			best = k
		}
	}
	// Parabolic interpolation on log power for sub-bin accuracy.
	delta := 0.0
	if best > 0 && best < len(power)-1 {
		a := safeLog(power[best-1])
		b := safeLog(power[best])
		c := safeLog(power[best+1])
		den := a - 2*b + c
		if den != 0 {
			delta = 0.5 * (a - c) / den
			if delta > 0.5 {
				delta = 0.5
			}
			if delta < -0.5 {
				delta = -0.5
			}
		}
	}
	return (float64(best) + delta) * binHz
}

func safeLog(v float64) float64 {
	if v <= 0 {
		return -745 // log of the smallest positive float64 magnitude region
	}
	return math.Log(v)
}
