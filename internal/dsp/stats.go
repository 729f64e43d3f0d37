package dsp

import (
	"math"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x (division by n, not n-1),
// or 0 for slices shorter than one element.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Energy returns the mean squared value of x. It is the quantity the paper
// uses ("average accelerometer signal energy") to rank activity difficulty.
func Energy(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s / float64(len(x))
}

// RMS returns the root of the mean squared value of x.
func RMS(x []float64) float64 { return math.Sqrt(Energy(x)) }

// MinMax returns the minimum and maximum of x. It returns (0, 0) for an
// empty slice.
func MinMax(x []float64) (min, max float64) {
	if len(x) == 0 {
		return 0, 0
	}
	min, max = x[0], x[0]
	for _, v := range x[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// PeakToPeak returns max(x) - min(x).
func PeakToPeak(x []float64) float64 {
	min, max := MinMax(x)
	return max - min
}

// Median returns the median of x without modifying it.
func Median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	c := append([]float64(nil), x...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return 0.5 * (c[n/2-1] + c[n/2])
}

// MedianInPlace returns the median of x like Median, but sorts x itself
// instead of a copy, so it allocates nothing. For NaN-free input the value
// is Median's.
func MedianInPlace(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	slices.Sort(x)
	if n%2 == 1 {
		return x[n/2]
	}
	return 0.5 * (x[n/2-1] + x[n/2])
}

// MAD returns the median absolute deviation of x (a robust spread measure).
func MAD(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Median(x)
	d := make([]float64, len(x))
	for i, v := range x {
		d[i] = math.Abs(v - m)
	}
	return Median(d)
}

// Skewness returns the sample skewness of x, or 0 when the standard
// deviation vanishes.
func Skewness(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m, sd := Mean(x), Std(x)
	if sd == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		z := (v - m) / sd
		s += z * z * z
	}
	return s / float64(len(x))
}

// Kurtosis returns the excess kurtosis of x (0 for a Gaussian), or 0 when
// the standard deviation vanishes.
func Kurtosis(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m, sd := Mean(x), Std(x)
	if sd == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		z := (v - m) / sd
		s += z * z * z * z
	}
	return s/float64(len(x)) - 3
}

// ZeroCrossings counts sign changes of x around its mean.
func ZeroCrossings(x []float64) int {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	n := 0
	prev := x[0] - m
	for _, v := range x[1:] {
		cur := v - m
		if (prev < 0 && cur >= 0) || (prev >= 0 && cur < 0) {
			n++
		}
		prev = cur
	}
	return n
}

// DerivativeSignChanges counts the number of sign changes of the discrete
// derivative of x. The paper's Random-Forest feature set calls this the
// "number of peaks".
func DerivativeSignChanges(x []float64) int {
	if len(x) < 3 {
		return 0
	}
	n := 0
	prev := x[1] - x[0]
	for i := 2; i < len(x); i++ {
		cur := x[i] - x[i-1]
		if (prev < 0 && cur > 0) || (prev > 0 && cur < 0) {
			n++
		}
		if cur != 0 {
			prev = cur
		}
	}
	return n
}

// RollingMean returns the centered-width rolling mean of x with the given
// window length. The first win-1 outputs use the partial window that is
// available so the result has the same length as x; this matches the
// behaviour needed by the Adaptive Threshold HR estimator, which compares
// the raw signal against its trailing rolling mean.
func RollingMean(x []float64, win int) []float64 {
	return RollingMeanInto(make([]float64, len(x)), x, win)
}

// RollingMeanInto is the allocation-free form of RollingMean: it fills
// out (len(out) == len(x), not aliasing x) and returns it.
func RollingMeanInto(out, x []float64, win int) []float64 {
	if win <= 0 {
		win = 1
	}
	out = out[:len(x)]
	var acc float64
	for i, v := range x {
		acc += v
		if i >= win {
			acc -= x[i-win]
			out[i] = acc / float64(win)
		} else {
			out[i] = acc / float64(i+1)
		}
	}
	return out
}

// Detrend removes the least-squares straight line from x, in place, and
// returns x for convenience.
func Detrend(x []float64) []float64 {
	n := len(x)
	if n < 2 {
		return x
	}
	// Fit x[i] = a + b*i by least squares.
	var sumI, sumI2, sumX, sumIX float64
	for i, v := range x {
		fi := float64(i)
		sumI += fi
		sumI2 += fi * fi
		sumX += v
		sumIX += fi * v
	}
	fn := float64(n)
	den := fn*sumI2 - sumI*sumI
	if den == 0 {
		return x
	}
	b := (fn*sumIX - sumI*sumX) / den
	a := (sumX - b*sumI) / fn
	for i := range x {
		x[i] -= a + b*float64(i)
	}
	return x
}

// Magnitude returns the per-sample Euclidean norm of three equally long
// component signals (used for 3-axis accelerometer magnitude).
func Magnitude(x, y, z []float64) []float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if len(z) < n {
		n = len(z)
	}
	return MagnitudeInto(make([]float64, n), x, y, z)
}

// MagnitudeInto is the allocation-free form of Magnitude: it fills dst
// (whose length bounds the output) and returns it.
func MagnitudeInto(dst, x, y, z []float64) []float64 {
	for i := range dst {
		dst[i] = math.Sqrt(x[i]*x[i] + y[i]*y[i] + z[i]*z[i])
	}
	return dst
}
