package sim

import (
	"reflect"
	"testing"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
)

// beliefPolicy learns a prior from the fixture's own windows and names
// the fixture estimators in the sigma map.
func beliefPolicy(t testing.TB, ws []dalia.Window) *belief.Policy {
	t.Helper()
	tab, err := belief.LearnWindows(belief.DefaultGrid(), ws, belief.DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	pol := belief.DefaultPolicy(tab)
	pol.Sigmas = map[string]belief.SigmaSpec{
		"cheap": {Base: 8, Motion: 0},
		"best":  {Base: 2.5, Motion: 0},
	}
	return pol
}

// TestBeliefObserverModePin: a policy with Smooth off and the gate off
// observes the stream without steering it — every pre-existing Result
// field must be bitwise identical to the belief-free run. This pins the
// belief-disabled pipeline to its PR 8 behavior.
func TestBeliefObserverModePin(t *testing.T) {
	sys, engine, ws := fixture(t)
	base := Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Windows:         ws,
		DurationSeconds: 1200,
		IncludeSensors:  true,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	pol := beliefPolicy(t, ws)
	pol.Smooth = false
	pol.GateBPM = 0
	observed := base
	observed.Belief = pol
	obs, err := Run(observed)
	if err != nil {
		t.Fatal(err)
	}
	if obs.BeliefBins == 0 || obs.BeliefWidthMean <= 0 {
		t.Error("observer mode recorded no belief telemetry")
	}
	if obs.BeliefCoverage <= 0 || obs.BeliefCoverage > 1 {
		t.Errorf("coverage %v outside (0, 1]", obs.BeliefCoverage)
	}
	// Null out the new fields; everything else must match bitwise.
	obs.BeliefBins, obs.GatedOffloads, obs.BeliefWidthMean, obs.BeliefCoverage = 0, 0, 0, 0
	if !reflect.DeepEqual(plain, obs) {
		t.Errorf("observer-mode belief changed pre-existing results:\nplain: %+v\nobserved: %+v", plain, obs)
	}
}

// TestBeliefGateSteering: an always-confident gate demotes every offload
// to the local simple model; a never-confident gate demotes none.
func TestBeliefGateSteering(t *testing.T) {
	sys, engine, ws := fixture(t)
	run := func(gate float64) Result {
		pol := beliefPolicy(t, ws)
		pol.Smooth = false
		pol.GateBPM = gate
		res, err := Run(Config{
			System:          sys,
			Engine:          engine,
			Constraint:      core.MAEConstraint(6),
			Windows:         ws,
			DurationSeconds: 1200,
			IncludeSensors:  true,
			Belief:          pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	baseline := run(0)
	if baseline.Offloaded == 0 {
		t.Skip("fixture constraint selected a local-only config; gate has nothing to steer")
	}
	if baseline.GatedOffloads != 0 {
		t.Errorf("gate disabled but %d windows gated", baseline.GatedOffloads)
	}
	always := run(10_000) // any finite width is confident
	if always.Offloaded != 0 {
		t.Errorf("always-confident gate left %d offloads", always.Offloaded)
	}
	if always.GatedOffloads != baseline.Offloaded {
		t.Errorf("gated %d windows, want every baseline offload (%d)",
			always.GatedOffloads, baseline.Offloaded)
	}
	never := run(1e-9) // no posterior is this sharp
	if never.GatedOffloads != 0 {
		t.Errorf("never-confident gate still gated %d windows", never.GatedOffloads)
	}
	if never.Offloaded != baseline.Offloaded {
		t.Errorf("inactive gating changed offloads: %d vs %d", never.Offloaded, baseline.Offloaded)
	}
}

// TestBeliefSmoothingRun: smoothing produces a well-formed result whose
// reported MAE differs from the raw pipeline (the posterior mean is in
// play) while the decision stream stays untouched with the gate off.
func TestBeliefSmoothingRun(t *testing.T) {
	sys, engine, ws := fixture(t)
	base := Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Windows:         ws,
		DurationSeconds: 1200,
		IncludeSensors:  true,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	smoothCfg := base
	smoothCfg.Belief = beliefPolicy(t, ws)
	smooth, err := Run(smoothCfg)
	if err != nil {
		t.Fatal(err)
	}
	if smooth.MAE == plain.MAE {
		t.Error("posterior-mean smoothing left MAE bit-identical; filter not in the loop")
	}
	if smooth.Offloaded != plain.Offloaded || smooth.Predictions != plain.Predictions {
		t.Error("smoothing with the gate off changed the decision stream")
	}
	if smooth.Watch != plain.Watch {
		t.Error("smoothing with the gate off changed watch energy")
	}
}

// TestBeliefDeterministicUnderFaults: the belief-filtered fault path is a
// pure function of the seed, like everything else in the simulator.
func TestBeliefDeterministicUnderFaults(t *testing.T) {
	sys, engine, ws := fixture(t)
	run := func() Result {
		pol := beliefPolicy(t, ws)
		pol.GateBPM = 30
		res, err := Run(Config{
			System:          sys,
			Engine:          engine,
			Constraint:      core.MAEConstraint(6),
			Windows:         ws,
			DurationSeconds: 1200,
			IncludeSensors:  true,
			Faults:          mustInjector(t, faults.WorstCase(), 7),
			Belief:          pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("belief fault runs diverged:\n%+v\n%+v", a, b)
	}
	if a.BeliefBins == 0 {
		t.Error("belief telemetry missing from fault path")
	}
}

// TestBeliefPolicyValidation: a malformed policy must fail Run before any
// window is simulated.
func TestBeliefPolicyValidation(t *testing.T) {
	sys, engine, ws := fixture(t)
	pol := beliefPolicy(t, ws)
	pol.Mass = 2
	_, err := Run(Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Windows:         ws,
		DurationSeconds: 600,
		Belief:          pol,
	})
	if err == nil {
		t.Fatal("invalid belief policy accepted")
	}
}
