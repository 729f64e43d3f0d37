package belief

import (
	"math"
	"math/rand"
	"testing"
)

// TestCredibleIntervalCalibration is the statistical acceptance gate:
// when observations really are Gaussian with the σ the filter assumes,
// the 90% credible interval must cover the true HR at roughly its nominal
// rate. The run is seeded, so the measured coverage is one fixed number —
// the band [0.85, 0.99] allows for discretization (bin-edge coverage
// over-covers slightly) without letting a broken interval slip through.
func TestCredibleIntervalCalibration(t *testing.T) {
	ws := trainWindows(t, 3, 0.05)
	split := len(ws) * 2 / 3
	tab, err := LearnWindows(DefaultGrid(), ws[:split], DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFilter(tab)
	if err != nil {
		t.Fatal(err)
	}
	const sigma, mass = 6.0, 0.9
	rng := rand.New(rand.NewSource(17))
	covered, total := 0, 0
	widthSum := 0.0
	prevSubject := -1
	for i := split; i < len(ws); i++ {
		w := &ws[i]
		if w.Subject != prevSubject {
			f.Reset() // a new stream starts from the uniform prior
			prevSubject = w.Subject
		}
		f.ObserveGaussian(w.TrueHR+rng.NormFloat64()*sigma, sigma)
		width, ok := f.Credible(mass, w.TrueHR)
		if ok {
			covered++
		}
		widthSum += width
		total++
	}
	if total < 50 {
		t.Fatalf("only %d evaluation windows", total)
	}
	coverage := float64(covered) / float64(total)
	if coverage < 0.85 || coverage > 0.99 {
		t.Errorf("90%% CI coverage = %.3f over %d windows, outside sanity band [0.85, 0.99]",
			coverage, total)
	}
	// The interval must also be informative: far narrower than the grid.
	g := tab.Grid
	if mean := widthSum / float64(total); !(mean > 0) || mean > 0.5*(g.MaxHR()-g.MinHR) {
		t.Errorf("mean CI width %.1f BPM is not informative", mean)
	}
}

// TestCalibrationDeterminism: the seeded calibration run is a pure
// function — two executions must agree bitwise on the final posterior.
func TestCalibrationDeterminism(t *testing.T) {
	ws := trainWindows(t, 2, 0.02)
	run := func() []float64 {
		tab, err := LearnWindows(DefaultGrid(), ws, DefaultLearnConfig())
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFilter(tab)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := range ws {
			f.ObserveGaussian(ws[i].TrueHR+rng.NormFloat64()*4, 4)
		}
		return f.Posterior(nil)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] || math.IsNaN(a[i]) {
			t.Fatalf("posterior bit %d differs across identical runs: %b vs %b", i, a[i], b[i])
		}
	}
}
