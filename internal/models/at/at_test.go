package at

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dalia"
	"repro/internal/dsp"
)

func syntheticWindow(hr float64, noise float64, seedPhase float64) *dalia.Window {
	const fs = 32.0
	const n = 256
	ppg := make([]float64, n)
	for i := range ppg {
		t := float64(i) / fs
		phase := hr / 60 * t
		// A narrow pulse train: strong fundamental with harmonics, like a
		// real PPG beat.
		frac := phase - math.Floor(phase)
		ppg[i] = math.Exp(-(frac-0.3)*(frac-0.3)/(2*0.01)) +
			noise*math.Sin(2*math.Pi*7*t+seedPhase)
	}
	return &dalia.Window{PPG: ppg, Rate: fs, TrueHR: hr}
}

func TestEstimateCleanPulseTrain(t *testing.T) {
	e := New()
	for _, hr := range []float64{55, 70, 90, 120, 150} {
		w := syntheticWindow(hr, 0, 0)
		got := e.EstimateHR(w)
		if math.Abs(got-hr) > 3 {
			t.Errorf("clean HR %v estimated as %v", hr, got)
		}
	}
}

func TestEstimateToleratesMildNoise(t *testing.T) {
	e := New()
	w := syntheticWindow(75, 0.15, 0.4)
	got := e.EstimateHR(w)
	if math.Abs(got-75) > 6 {
		t.Errorf("mildly noisy HR estimated as %v, want ≈75", got)
	}
}

func TestEstimateFallbacks(t *testing.T) {
	e := New()
	flat := &dalia.Window{PPG: make([]float64, 256), Rate: 32}
	if got := e.EstimateHR(flat); got != e.FallbackHR {
		t.Errorf("flat window estimate %v, want fallback %v", got, e.FallbackHR)
	}
	short := &dalia.Window{PPG: make([]float64, 10), Rate: 32}
	if got := e.EstimateHR(short); got != e.FallbackHR {
		t.Errorf("short window estimate %v, want fallback %v", got, e.FallbackHR)
	}
	if got := e.EstimateHR(&dalia.Window{PPG: make([]float64, 256), Rate: 0}); got != e.FallbackHR {
		t.Errorf("zero-rate estimate %v, want fallback", got)
	}
}

func TestEstimateClampsRange(t *testing.T) {
	e := New()
	// Whatever the input, output must stay in the physiological range.
	w := syntheticWindow(70, 2.5, 1.0) // heavy interference
	got := e.EstimateHR(w)
	if got < 35 || got > 210 {
		t.Errorf("estimate %v outside clamp range", got)
	}
}

func TestOnSyntheticDataset(t *testing.T) {
	// AT must be accurate on still windows and visibly degraded on
	// high-motion windows — the asymmetry CHRIS exploits.
	c := dalia.DefaultConfig()
	c.DurationScale = 0.04
	c.Subjects = 2
	e := New()
	var easyErr, hardErr []float64
	for s := 0; s < c.Subjects; s++ {
		rec, err := dalia.GenerateSubject(c, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range dalia.Windows(rec, c.WindowSamples, c.StrideSamples) {
			if w.Purity < 1 {
				continue
			}
			err := math.Abs(e.EstimateHR(&w) - w.TrueHR)
			switch w.Activity {
			case dalia.Sitting, dalia.Resting:
				easyErr = append(easyErr, err)
			case dalia.Walking, dalia.Stairs, dalia.TableSoccer:
				hardErr = append(hardErr, err)
			}
		}
	}
	if len(easyErr) == 0 || len(hardErr) == 0 {
		t.Fatal("missing activity coverage")
	}
	easy, hard := dsp.Mean(easyErr), dsp.Mean(hardErr)
	t.Logf("AT MAE: easy %.2f BPM, hard %.2f BPM", easy, hard)
	if easy > 12 {
		t.Errorf("easy-window MAE %.2f too high", easy)
	}
	if hard < easy+4 {
		t.Errorf("hard windows (%.2f) not clearly worse than easy (%.2f)", hard, easy)
	}
}

func TestInterfaceMetadata(t *testing.T) {
	e := New()
	if e.Name() != "AT" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.Ops() != 3000 {
		t.Errorf("Ops = %d, want 3000", e.Ops())
	}
	if e.Params() != 0 {
		t.Errorf("Params = %d, want 0", e.Params())
	}
}

// referenceEstimate is AT written out step by step: rolling means as
// fresh slices, then regions, peaks and IBIs as separate lists and the
// median over a copy. The streaming estimate must equal it bitwise.
func referenceEstimate(e *Estimator, ppg []float64, fs float64) float64 {
	if len(ppg) < e.MeanWindow*2 || fs <= 0 {
		return e.FallbackHR
	}
	if e.Smooth > 1 {
		ppg = dsp.RollingMean(ppg, e.Smooth)
	}
	thr := dsp.RollingMean(ppg, e.MeanWindow)
	regions := dsp.RegionsAbove(ppg, thr)
	if len(regions) < 2 {
		return e.FallbackHR
	}
	peaks := make([]int, 0, len(regions))
	for _, r := range regions {
		peaks = append(peaks, dsp.ArgMax(ppg, r.Start, r.End))
	}
	minGap := fs * 60 / e.MaxHR
	maxGap := fs * 60 / e.MinHR
	var ibis []float64
	for i := 1; i < len(peaks); i++ {
		gap := float64(peaks[i] - peaks[i-1])
		if gap >= minGap && gap <= maxGap {
			ibis = append(ibis, gap)
		}
	}
	if len(ibis) == 0 {
		return e.FallbackHR
	}
	return 60 * fs / dsp.Median(ibis)
}

// datasetWindows returns every window of two synthetic subjects.
func datasetWindows(t testing.TB) []dalia.Window {
	t.Helper()
	c := dalia.DefaultConfig()
	c.DurationScale = 0.04
	c.Subjects = 2
	var ws []dalia.Window
	for s := 0; s < c.Subjects; s++ {
		rec, err := dalia.GenerateSubject(c, s)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, dalia.Windows(rec, c.WindowSamples, c.StrideSamples)...)
	}
	return ws
}

// TestEstimateMatchesReference pins the streaming estimate bitwise to the
// allocating reference on dataset windows, synthetic pulse trains, coarsely
// quantized pulse trains (ADC-like samples, whose regions hold tied maxima
// where the first one must win), a window longer than the stack scratch,
// and with smoothing off.
func TestEstimateMatchesReference(t *testing.T) {
	ws := datasetWindows(t)
	for _, hr := range []float64{40, 75, 120, 190} {
		ws = append(ws, *syntheticWindow(hr, 0.3, hr))
		q := syntheticWindow(hr, 0.1, hr)
		for i, v := range q.PPG {
			q.PPG[i] = math.Round(v*4) / 4
		}
		ws = append(ws, *q)
	}
	long := syntheticWindow(90, 0.2, 0.5)
	long.PPG = append(append([]float64(nil), long.PPG...), long.PPG...)
	ws = append(ws, *long)
	for _, smooth := range []int{4, 1} {
		e := New()
		e.Smooth = smooth
		for i := range ws {
			w := &ws[i]
			got := e.estimate(w.PPG, w.Rate)
			want := referenceEstimate(e, w.PPG, w.Rate)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("smooth %d window %d: estimate %v, reference %v", smooth, i, got, want)
			}
		}
	}
}

// TestEstimateHRAllocs: AT runs once per simple-model window on every
// serving cycle, so a dataset-sized window must not allocate.
func TestEstimateHRAllocs(t *testing.T) {
	e := New()
	w := &datasetWindows(t)[3]
	if n := testing.AllocsPerRun(100, func() { e.EstimateHR(w) }); n != 0 {
		t.Fatalf("EstimateHR allocates %v per window, want 0", n)
	}
}

// TestSharedEstimatorConcurrent drives one Estimator from several
// goroutines, as the serving engine's workers share a zoo model; every
// result must equal the serial call bitwise (run under -race in CI).
func TestSharedEstimatorConcurrent(t *testing.T) {
	e := New()
	ws := datasetWindows(t)
	want := make([]float64, len(ws))
	for i := range ws {
		want[i] = e.EstimateHR(&ws[i])
	}
	const workers = 4
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			for r := 0; r < 3; r++ {
				for i := g; i < len(ws); i++ {
					if got := e.EstimateHR(&ws[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
						errs <- fmt.Errorf("goroutine %d window %d: %v, serial %v", g, i, got, want[i])
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkEstimateHR times AT on dataset windows.
func BenchmarkEstimateHR(b *testing.B) {
	e := New()
	ws := datasetWindows(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		e.EstimateHR(&ws[i%len(ws)])
		i++
	}
}
