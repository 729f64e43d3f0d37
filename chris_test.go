package chris

import (
	"sync"
	"testing"

	"repro/internal/core"
)

var (
	qpOnce sync.Once
	qp     *Pipeline
	qpErr  error
)

func quickPipeline(t *testing.T) *Pipeline {
	t.Helper()
	qpOnce.Do(func() { qp, qpErr = BuildPipeline(QuickPipelineConfig()) })
	if qpErr != nil {
		t.Fatal(qpErr)
	}
	return qp
}

// TestFacadeEndToEnd exercises the public API exactly as the quickstart
// example does: build → engine → constraint → per-window prediction.
func TestFacadeEndToEnd(t *testing.T) {
	pipe := quickPipeline(t)
	engine, err := NewEngine(pipe.Profiles, pipe.Classifier)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, p := range pipe.Profiles {
		if p.MAE > worst {
			worst = p.MAE
		}
	}
	cfg, err := engine.SelectConfig(true, MAEConstraint(worst))
	if err != nil {
		t.Fatal(err)
	}
	d := engine.Predict(&cfg, &pipe.TestWindows[0])
	if d.HR < 35 || d.HR > 210 {
		t.Errorf("prediction %v out of range", d.HR)
	}
	if d.Model == nil || d.Difficulty < 1 {
		t.Error("decision incomplete")
	}
}

// TestFacadeZooAndPareto checks the re-exported analysis helpers.
func TestFacadeZooAndPareto(t *testing.T) {
	pipe := quickPipeline(t)
	if got := len(pipe.Zoo.EnumerateConfigs()); got != 60 {
		t.Errorf("enumerated %d configs, want 60", got)
	}
	front := Pareto(pipe.Profiles)
	if len(front) == 0 || len(front) > len(pipe.Profiles) {
		t.Errorf("front size %d", len(front))
	}
	local := FilterLocal(pipe.Profiles)
	for _, p := range local {
		if p.Exec != core.Local {
			t.Fatal("FilterLocal leaked a hybrid config")
		}
	}
}

// TestFacadeSimulate runs a short scenario through the re-exported
// simulator.
func TestFacadeSimulate(t *testing.T) {
	pipe := quickPipeline(t)
	engine, err := NewEngine(pipe.Profiles, pipe.Classifier)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, p := range pipe.Profiles {
		if p.MAE > worst {
			worst = p.MAE
		}
	}
	res, err := Simulate(ScenarioConfig{
		System:          pipe.Sys,
		Engine:          engine,
		Constraint:      MAEConstraint(worst),
		Windows:         pipe.TestWindows,
		DurationSeconds: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Predictions != 60 {
		t.Errorf("predictions = %d, want 60", res.Predictions)
	}
}
