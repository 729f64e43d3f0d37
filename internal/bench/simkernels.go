package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/models/rf"
	"repro/internal/sim"
)

// simBiasEst is a fixed-cost, fixed-bias estimator: the sim kernels
// measure the tick loop and fault machinery, not model inference, so the
// models must be trivially cheap and deterministic.
type simBiasEst struct {
	name string
	ops  int64
	bias float64
}

func (e *simBiasEst) Name() string                       { return e.name }
func (e *simBiasEst) Ops() int64                         { return e.ops }
func (e *simBiasEst) Params() int64                      { return 0 }
func (e *simBiasEst) EstimateHR(w *dalia.Window) float64 { return models.ClampHR(w.TrueHR + e.bias) }

// simRater is the fixture engine's core.DifficultyRater: a real
// difficulty forest's verdict per fixture window, computed once, so the
// sim and serve kernels time the loop they are named for rather than the
// forest (classifying a window costs about 4 µs; the SimRun1h loop
// without it, under 0.1 µs). ids[s][w.Start/stride] answers for subject
// s, which keeps the two subjects' windows apart.
type simRater struct {
	stride int
	ids    [][]int
}

func (r *simRater) DifficultyID(w *dalia.Window) int { return r.ids[w.Subject][w.Start/r.stride] }

// newSimRater records cls's verdict on every window of ws: windows of
// subjects 0..subjects-1, each subject's in stride order from Start 0.
func newSimRater(cls core.DifficultyRater, ws []dalia.Window, stride, subjects int) *simRater {
	r := &simRater{stride: stride, ids: make([][]int, subjects)}
	for i := range ws {
		w := &ws[i]
		if w.Start != len(r.ids[w.Subject])*stride {
			panic("bench: sim kernel windows are not in stride order")
		}
		r.ids[w.Subject] = append(r.ids[w.Subject], cls.DifficultyID(w))
	}
	return r
}

// simKernelFixture builds the small engine + window stream the sim
// kernels replay: synthetic windows, a real difficulty forest's
// precomputed verdicts, and a two-model zoo with precomputed predictions.
func simKernelFixture() (*hw.System, *core.Engine, []dalia.Window) {
	c := dalia.DefaultConfig()
	c.Subjects = 2
	c.DurationScale = 0.03
	var ws []dalia.Window
	for s := 0; s < c.Subjects; s++ {
		rec, err := dalia.GenerateSubject(c, s)
		if err != nil {
			panic("bench: sim kernel dataset: " + err.Error())
		}
		ws = append(ws, dalia.Windows(rec, c.WindowSamples, c.StrideSamples)...)
	}
	cls, err := rf.Train(ws, rf.DefaultConfig())
	if err != nil {
		panic("bench: sim kernel forest: " + err.Error())
	}
	simple := &simBiasEst{name: "cheap", ops: 3_000, bias: 8}
	complex := &simBiasEst{name: "best", ops: 12_000_000, bias: 2}
	sys := hw.NewSystem()

	header := core.NewRecordHeader("cheap", "best")
	rater := newSimRater(cls, ws, c.StrideSamples, c.Subjects)
	recs := make([]core.WindowRecord, len(ws))
	for i := range ws {
		recs[i] = core.WindowRecord{
			TrueHR:     ws[i].TrueHR,
			Activity:   ws[i].Activity,
			Difficulty: rater.DifficultyID(&ws[i]),
			Header:     header,
			Preds:      []float64{ws[i].TrueHR + 8, ws[i].TrueHR + 2},
		}
	}
	zoo, err := core.NewZoo(simple, complex)
	if err != nil {
		panic("bench: sim kernel zoo: " + err.Error())
	}
	profiles, err := core.ProfileConfigs(zoo.EnumerateConfigs(), recs, sys)
	if err != nil {
		panic("bench: sim kernel profiling: " + err.Error())
	}
	engine, err := core.NewEngine(profiles, rater)
	if err != nil {
		panic("bench: sim kernel engine: " + err.Error())
	}
	return sys, engine, ws
}

// simKernels measures whole-simulator throughput per window: the
// fault-free tick loop, and the fault-injected loop under the worst-case
// chaos scenario — the difference is the per-window overhead of the lossy
// channel, the retry/timeout protocol and the hysteresis bookkeeping.
//
// Their allocations belong to the run, not the window: the Step with its
// two configuration names, the scenario and injector streams, the
// Result. A simulated hour makes a few of them, which the ledger reports
// as that fraction per window; sim.TestRunAllocsPerRunNotPerWindow pins
// that two hours make no more.
func simKernels() []KernelResult {
	sys, engine, ws := simKernelFixture()
	const hourSeconds = 3600
	windowsPerRun := int(hourSeconds / sys.PeriodSeconds)
	base := sim.Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Windows:         ws,
		DurationSeconds: hourSeconds,
		IncludeSensors:  true,
	}
	return []KernelResult{
		runKernelScaled("SimRun1h/clean", windowsPerRun, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(base); err != nil {
					b.Fatal(err)
				}
			}
		}),
		runKernelScaled("SimRun1h/faults", windowsPerRun, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh injector per run keeps every iteration on the
				// identical replayable packet stream.
				inj, err := faults.NewInjector(faults.WorstCase(), 7)
				if err != nil {
					b.Fatal(err)
				}
				cfg := base
				cfg.Faults = inj
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
}
