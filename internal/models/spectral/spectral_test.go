package spectral

import (
	"math"
	"testing"

	"repro/internal/dalia"
	"repro/internal/dsp"
	"repro/internal/models/at"
)

func TestEstimateOnDataset(t *testing.T) {
	c := dalia.DefaultConfig()
	c.Subjects = 2
	c.DurationScale = 0.04
	e := New()
	var easy, hard []float64
	for s := 0; s < c.Subjects; s++ {
		rec, err := dalia.GenerateSubject(c, s)
		if err != nil {
			t.Fatal(err)
		}
		e.Reset()
		for _, w := range dalia.Windows(rec, c.WindowSamples, c.StrideSamples) {
			if w.Purity < 1 {
				continue
			}
			err := math.Abs(e.EstimateHR(&w) - w.TrueHR)
			switch w.Activity {
			case dalia.Sitting, dalia.Resting, dalia.Working:
				easy = append(easy, err)
			case dalia.Walking, dalia.Stairs, dalia.TableSoccer:
				hard = append(hard, err)
			}
		}
	}
	easyMAE, hardMAE := dsp.Mean(easy), dsp.Mean(hard)
	t.Logf("spectral MAE: easy %.2f, hard %.2f BPM", easyMAE, hardMAE)
	if easyMAE > 6 {
		t.Errorf("easy-window MAE %.2f too high", easyMAE)
	}
	// The artifact masking should keep the spectral tracker clearly ahead
	// of the time-domain AT on hard windows.
	atEst := at.New()
	var atHard []float64
	for s := 0; s < c.Subjects; s++ {
		rec, _ := dalia.GenerateSubject(c, s)
		for _, w := range dalia.Windows(rec, c.WindowSamples, c.StrideSamples) {
			if w.Purity < 1 {
				continue
			}
			switch w.Activity {
			case dalia.Walking, dalia.Stairs, dalia.TableSoccer:
				atHard = append(atHard, math.Abs(atEst.EstimateHR(&w)-w.TrueHR))
			}
		}
	}
	if hardMAE >= dsp.Mean(atHard) {
		t.Errorf("spectral hard MAE %.2f not better than AT's %.2f", hardMAE, dsp.Mean(atHard))
	}
}

func TestTrackingHelpsContinuity(t *testing.T) {
	c := dalia.DefaultConfig()
	c.Subjects = 1
	c.DurationScale = 0.03
	rec, err := dalia.GenerateSubject(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws := dalia.Windows(rec, c.WindowSamples, c.StrideSamples)

	run := func(track float64) float64 {
		e := New()
		e.TrackWeight = track
		var sum float64
		var n int
		for i := range ws {
			sum += math.Abs(e.EstimateHR(&ws[i]) - ws[i].TrueHR)
			n++
		}
		return sum / float64(n)
	}
	with := run(0.35)
	without := run(0)
	t.Logf("MAE with tracking %.2f, without %.2f", with, without)
	if with > without+1.5 {
		t.Errorf("tracking made things much worse: %.2f vs %.2f", with, without)
	}
}

// TestZeroAllocSteadyState guards the allocation contract: after the
// first window sizes the scratch, EstimateHR must not touch the heap.
func TestZeroAllocSteadyState(t *testing.T) {
	c := dalia.DefaultConfig()
	c.Subjects = 1
	c.DurationScale = 0.03
	rec, err := dalia.GenerateSubject(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws := dalia.Windows(rec, c.WindowSamples, c.StrideSamples)
	if len(ws) < 4 {
		t.Fatalf("only %d windows", len(ws))
	}
	e := New()
	e.EstimateHR(&ws[0]) // size the scratch
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		e.EstimateHR(&ws[i%len(ws)])
		i++
	}); n != 0 {
		t.Errorf("EstimateHR allocates %v per window in steady state", n)
	}
}

func TestInterface(t *testing.T) {
	e := New()
	if e.Name() != ModelName || e.Ops() <= 0 || e.Params() != 0 {
		t.Error("interface metadata wrong")
	}
	// Flat window: estimator must return something clamped, not panic.
	w := &dalia.Window{PPG: make([]float64, 256), AccelX: make([]float64, 256),
		AccelY: make([]float64, 256), AccelZ: make([]float64, 256), Rate: 32}
	got := e.EstimateHR(w)
	if got < 35 || got > 210 {
		t.Errorf("flat-window estimate %v out of range", got)
	}
	e.Reset()
	if e.lastHR != 0 {
		t.Error("Reset failed")
	}
}

// benchWindow synthesizes one cardiac-band window (88 BPM PPG over mild
// wrist motion) for the per-window estimator benchmarks.
func benchWindow() *dalia.Window {
	const n, rate = 256, 32.0
	w := &dalia.Window{PPG: make([]float64, n), AccelX: make([]float64, n),
		AccelY: make([]float64, n), AccelZ: make([]float64, n), Rate: rate}
	for i := range w.PPG {
		ts := float64(i) / rate
		w.PPG[i] = math.Sin(2*math.Pi*1.47*ts) + 0.2*math.Sin(2*math.Pi*2.94*ts)
		w.AccelX[i] = 0.1 * math.Sin(2*math.Pi*0.9*ts)
		w.AccelY[i] = 0.05 * math.Cos(2*math.Pi*0.9*ts)
		w.AccelZ[i] = 1 + 0.02*math.Sin(2*math.Pi*1.8*ts)
	}
	return w
}

func BenchmarkEstimateHR64(b *testing.B) {
	e := New()
	w := benchWindow()
	e.EstimateHR(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EstimateHR(w)
	}
}
