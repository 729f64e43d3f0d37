package main

import (
	"errors"
	"fmt"

	"repro/internal/bench"
	"repro/internal/models/tcn"
)

// artifactIDs lists the paper artifacts bench.Artifacts regenerates, in
// its order.
var artifactIDs = []string{"T1", "T2", "T3", "F3", "F4", "F5", "X1", "X2", "A1", "A2", "A3"}

// serialWindows is how many test windows the traced run pushes through
// each serial TCN variant.
const serialWindows = 64

// artifactsWL is the artifacts workload: one op is one bench.Artifacts
// pass over the warm paper suite. Its input is the fixed paper suite, so
// the seed does not change it.
type artifactsWL struct {
	o     options
	suite *bench.Suite
	first []bench.Artifact
}

func newArtifacts(o options) *artifactsWL { return &artifactsWL{o: o} }

func (w *artifactsWL) prime() error { return primeSuite(w.o) }

func (w *artifactsWL) setup(tr *tracer) error {
	s, err := newSuite(w.o, tr)
	w.suite = s
	return err
}

func (w *artifactsWL) prepare(tr *tracer) error {
	if tr != nil {
		return shadowSetup(w.suite, tr)
	}
	return nil
}

func (w *artifactsWL) minOps() int { return 1 }

// op regenerates every artifact. Traced, it calls the generators one by
// one in bench.Artifacts' order, each inside its own span.
func (w *artifactsWL) op(i int, tr *tracer, parent int) (int, error) {
	var arts []bench.Artifact
	if tr == nil {
		arts = bench.Artifacts(w.suite)
	} else {
		s := w.suite
		gen := map[string]func() bench.Artifact{
			"T1": func() bench.Artifact { return bench.TableI(s) },
			"T2": func() bench.Artifact { return bench.TableII(s) },
			"T3": func() bench.Artifact { return bench.TableIII(s) },
			"F3": func() bench.Artifact { return bench.Fig3(s) },
			"F4": func() bench.Artifact { a, _ := bench.Fig4(s); return a },
			"F5": func() bench.Artifact { return bench.Fig5(s) },
			"X1": func() bench.Artifact { return bench.BLEDownPareto(s) },
			"X2": func() bench.Artifact { return bench.RFAccuracy(s) },
			"A1": func() bench.Artifact { return bench.AblationDispatch(s) },
			"A2": func() bench.Artifact { return bench.AblationIdlePower(s) },
			"A3": func() bench.Artifact { return bench.AblationQuantization(s) },
		}
		for _, id := range artifactIDs {
			sp := tr.begin("bench.artifact."+id, parent, i)
			arts = append(arts, gen[id]())
			tr.end(sp, 1)
		}
	}
	if len(arts) != len(artifactIDs) {
		return 0, fmt.Errorf("%d artifacts, want %d", len(arts), len(artifactIDs))
	}
	for k, a := range arts {
		if a.ID != artifactIDs[k] || a.Text == "" {
			return 0, fmt.Errorf("artifact %d is %q with %d bytes of text, want %s", k, a.ID, len(a.Text), artifactIDs[k])
		}
	}
	if w.first == nil {
		w.first = arts
	} else {
		for k, a := range arts {
			if a.Text != w.first[k].Text {
				return 0, fmt.Errorf("artifact %s text differs from the first op's", a.ID)
			}
		}
	}
	return len(w.suite.TestWindows), nil
}

// after times, in a traced op, the serial single-window TCN path the
// quantization ablation runs, in each precision.
func (w *artifactsWL) after(i int, tr *tracer, _ int) error {
	if tr == nil {
		return nil
	}
	ws := w.suite.TestWindows
	if len(ws) > serialWindows {
		ws = ws[:serialWindows]
	}
	for _, v := range []struct {
		name  string
		net   *tcn.HRNet
		quant bool
	}{
		{"small_int8", w.suite.Small, true},
		{"small_f32", w.suite.Small, false},
		{"big_int8", w.suite.Big, true},
		{"big_f32", w.suite.Big, false},
	} {
		was := v.net.UseQuantized
		v.net.UseQuantized = v.quant
		tr.shadow("tcn.serial."+v.name, -1, i, len(ws), func() {
			for k := range ws {
				v.net.EstimateHR(&ws[k])
			}
		})
		v.net.UseQuantized = was
	}
	return nil
}

func (w *artifactsWL) finish() (quality, error) {
	if w.first == nil {
		return quality{}, errors.New("no artifacts op completed")
	}
	_, f4 := bench.Fig4(w.suite)
	if !f4.Sel1OK {
		return quality{}, errors.New("Fig. 4 has no Sel. Model 1")
	}
	return quality{
		successRate: float64(len(w.first)) / float64(len(artifactIDs)),
		maeBPM:      f4.Sel1.MAE,
		watchUJ:     f4.Sel1.WatchEnergy.MicroJoules(),
		offloadFrac: f4.Sel1.OffloadFraction,
	}, nil
}

func (w *artifactsWL) layers(tr *tracer) map[string]float64 {
	out := map[string]float64{}
	for _, id := range artifactIDs {
		if v, ok := tr.medianMs("bench.artifact." + id); ok {
			out["bench.artifact_ms."+id] = v
		}
	}
	for _, v := range []string{"small_int8", "small_f32", "big_int8", "big_f32"} {
		if ms, ok := tr.perUnitMs("tcn.serial." + v); ok {
			out["tcn.serial_us_per_window."+v] = ms * 1e3
		}
	}
	setupLayers(tr, out)
	return out
}

func (w *artifactsWL) close() {}
