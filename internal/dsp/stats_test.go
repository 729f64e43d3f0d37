package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		x    []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestVarianceAndStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(x); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Std(x); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Std = %v, want 2", got)
	}
}

func TestEnergyAndRMS(t *testing.T) {
	x := []float64{3, -3, 3, -3}
	if got := Energy(x); !almostEqual(got, 9, 1e-12) {
		t.Errorf("Energy = %v, want 9", got)
	}
	if got := RMS(x); !almostEqual(got, 3, 1e-12) {
		t.Errorf("RMS = %v, want 3", got)
	}
}

func TestMinMaxMedianMAD(t *testing.T) {
	x := []float64{7, -2, 5, 0, 3}
	min, max := MinMax(x)
	if min != -2 || max != 7 {
		t.Errorf("MinMax = (%v,%v), want (-2,7)", min, max)
	}
	if got := Median(x); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("even Median = %v, want 2.5", got)
	}
	// MAD of {7,-2,5,0,3}: median 3, abs dev {4,5,2,3,0} -> median 3.
	if got := MAD(x); got != 3 {
		t.Errorf("MAD = %v, want 3", got)
	}
	if got := PeakToPeak(x); got != 9 {
		t.Errorf("PeakToPeak = %v, want 9", got)
	}
}

func TestSkewKurtGaussianish(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 20000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if got := Skewness(x); math.Abs(got) > 0.06 {
		t.Errorf("Skewness of Gaussian sample = %v, want ~0", got)
	}
	if got := Kurtosis(x); math.Abs(got) > 0.12 {
		t.Errorf("Kurtosis of Gaussian sample = %v, want ~0", got)
	}
}

func TestSkewKurtConstantSignal(t *testing.T) {
	x := []float64{4, 4, 4, 4}
	if got := Skewness(x); got != 0 {
		t.Errorf("Skewness(const) = %v, want 0", got)
	}
	if got := Kurtosis(x); got != 0 {
		t.Errorf("Kurtosis(const) = %v, want 0", got)
	}
}

func TestZeroCrossings(t *testing.T) {
	// Square-ish wave around its mean (mean 0): + + - - + + - -
	x := []float64{1, 1, -1, -1, 1, 1, -1, -1}
	if got := ZeroCrossings(x); got != 3 {
		t.Errorf("ZeroCrossings = %d, want 3", got)
	}
}

func TestDerivativeSignChanges(t *testing.T) {
	// Triangle wave: up, down, up, down => 3 derivative sign changes.
	x := []float64{0, 1, 2, 1, 0, 1, 2, 1, 0}
	if got := DerivativeSignChanges(x); got != 3 {
		t.Errorf("DerivativeSignChanges = %d, want 3", got)
	}
	if got := DerivativeSignChanges([]float64{1, 2}); got != 0 {
		t.Errorf("short input = %d, want 0", got)
	}
}

func TestRollingMeanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	win := 24
	got := RollingMean(x, win)
	for i := range x {
		lo := i - win + 1
		if lo < 0 {
			lo = 0
		}
		want := Mean(x[lo : i+1])
		if !almostEqual(got[i], want, 1e-9) {
			t.Fatalf("RollingMean[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestDetrendRemovesLine(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 3 + 0.5*float64(i)
	}
	Detrend(x)
	for i, v := range x {
		if !almostEqual(v, 0, 1e-9) {
			t.Fatalf("Detrend residual at %d = %v", i, v)
		}
	}
}

func TestMagnitude(t *testing.T) {
	m := Magnitude([]float64{3}, []float64{4}, []float64{0})
	if !almostEqual(m[0], 5, 1e-12) {
		t.Errorf("Magnitude = %v, want 5", m[0])
	}
}

// Property: mean is translation-equivariant and scale-equivariant.
func TestMeanPropertyQuick(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		x := sanitize(raw)
		if len(x) == 0 {
			return true
		}
		if math.Abs(shift) > 1e6 {
			shift = math.Mod(shift, 1e6)
		}
		shifted := make([]float64, len(x))
		for i, v := range x {
			shifted[i] = v + shift
		}
		return almostEqual(Mean(shifted), Mean(x)+shift, 1e-6*(1+math.Abs(shift)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: variance is invariant under translation and non-negative.
func TestVariancePropertyQuick(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		x := sanitize(raw)
		if len(x) == 0 {
			return true
		}
		shift = math.Mod(shift, 1e3)
		shifted := make([]float64, len(x))
		for i, v := range x {
			shifted[i] = v + shift
		}
		v0, v1 := Variance(x), Variance(shifted)
		if v0 < 0 || v1 < 0 {
			return false
		}
		scale := 1 + math.Abs(v0)
		return almostEqual(v0, v1, 1e-6*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sanitize clips quick-generated values into a numerically tame range and
// drops NaN/Inf so the property checks test algebra, not float overflow.
func sanitize(raw []float64) []float64 {
	var out []float64
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out = append(out, math.Mod(v, 1e3))
	}
	if len(out) > 64 {
		out = out[:64]
	}
	return out
}
