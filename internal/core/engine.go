package core

import (
	"fmt"

	"repro/internal/dalia"
	"repro/internal/hw/power"
	"repro/internal/models"
	"repro/internal/models/rf"
)

// ConstraintKind selects which user threshold the engine honours.
type ConstraintKind int

const (
	// MaxMAE asks for the lowest-energy configuration whose profiled MAE
	// does not exceed the threshold.
	MaxMAE ConstraintKind = iota
	// MaxEnergy asks for the lowest-MAE configuration whose profiled
	// watch energy does not exceed the threshold.
	MaxEnergy
)

// Constraint is the user-defined threshold of §III-B1. It is a soft
// constraint: it holds exactly when field data is distributed like the
// profiling data.
type Constraint struct {
	Kind   ConstraintKind
	MAE    float64      // BPM, used when Kind == MaxMAE
	Energy power.Energy // used when Kind == MaxEnergy
}

// MAEConstraint builds a maximum-expected-MAE constraint.
func MAEConstraint(bpm float64) Constraint { return Constraint{Kind: MaxMAE, MAE: bpm} }

// EnergyConstraint builds a maximum-expected-energy constraint.
func EnergyConstraint(e power.Energy) Constraint { return Constraint{Kind: MaxEnergy, Energy: e} }

// Decision is the runtime output for one window: which model ran, where,
// and what the difficulty detector said.
type Decision struct {
	Model      models.HREstimator
	Offloaded  bool
	Difficulty int
	HR         float64
}

// DifficultyRater is the difficulty-detector interface the engine
// consults once per window. The trained activity forest (*rf.Classifier)
// is the production implementation; the fleet simulator substitutes an
// O(1) replay table precomputed over each user's unique windows, which is
// what lets the population-scale tick loop run at about 110 ns/window
// (370 ns with fault injection; traced perfbench fleet split, 2-vCPU
// Xeon) instead of re-extracting RF features 43 200 times per simulated
// user-day.
type DifficultyRater interface {
	// DifficultyID returns the 1-based difficulty rank (1..9) of the
	// window's predicted activity.
	DifficultyID(w *dalia.Window) int
}

// The forest stays the canonical rater.
var _ DifficultyRater = (*rf.Classifier)(nil)

// Engine is the CHRIS decision engine: a profile store sorted by energy, a
// difficulty detector, and the connection status input.
type Engine struct {
	profiles   []Profile // ascending watch energy (ProfileConfigs order)
	classifier DifficultyRater
}

// NewEngine builds the engine from profiled configurations (in
// ProfileConfigs order) and the trained difficulty detector.
func NewEngine(profiles []Profile, classifier DifficultyRater) (*Engine, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("core: engine needs at least one profile")
	}
	for i := 1; i < len(profiles); i++ {
		if profiles[i].WatchEnergy < profiles[i-1].WatchEnergy {
			return nil, fmt.Errorf("core: profiles not sorted by energy at %d", i)
		}
	}
	if classifier == nil {
		return nil, fmt.Errorf("core: engine needs a difficulty classifier")
	}
	return &Engine{profiles: profiles, classifier: classifier}, nil
}

// Profiles returns the stored configurations (ascending energy).
func (e *Engine) Profiles() []Profile { return e.profiles }

// ProfileByName returns the stored profile whose configuration name
// matches. Configuration names are unique within a store, so the name is
// a stable handle for checkpoint restore: a snapshot records the active
// configuration by name and this lookup rebinds it.
func (e *Engine) ProfileByName(name string) (Profile, bool) {
	for i := range e.profiles {
		if e.profiles[i].Name() == name {
			return e.profiles[i], true
		}
	}
	return Profile{}, false
}

// SelectConfig performs the constraint-dependent configuration selection
// of §III-B1: hybrid configurations are filtered out when the BLE link is
// down, then a single linear pass over the energy-sorted store finds the
// configuration the constraint asks for.
func (e *Engine) SelectConfig(connected bool, c Constraint) (Profile, error) {
	feasible := func(p *Profile) bool { return connected || p.Exec == Local }
	switch c.Kind {
	case MaxMAE:
		// Store is energy-ascending: the first feasible profile meeting
		// the MAE bound is the cheapest one.
		for i := range e.profiles {
			p := &e.profiles[i]
			if feasible(p) && p.MAE <= c.MAE {
				return *p, nil
			}
		}
		return Profile{}, fmt.Errorf("core: no feasible configuration with MAE ≤ %.2f BPM (connected=%v)", c.MAE, connected)
	case MaxEnergy:
		best := -1
		for i := range e.profiles {
			p := &e.profiles[i]
			if p.WatchEnergy > c.Energy {
				break // energy-sorted: nothing further can be feasible
			}
			if feasible(p) && (best < 0 || p.MAE < e.profiles[best].MAE) {
				best = i
			}
		}
		if best < 0 {
			return Profile{}, fmt.Errorf("core: no feasible configuration with energy ≤ %v (connected=%v)", c.Energy, connected)
		}
		return e.profiles[best], nil
	default:
		return Profile{}, fmt.Errorf("core: unknown constraint kind %d", c.Kind)
	}
}

// Dispatch performs the input-dependent model selection of §III-B2 for one
// window under a selected configuration: the difficulty detector assigns
// an activity; activities at or below the threshold go to the simple
// model, the rest to the complex one, which runs on the phone when the
// configuration is hybrid.
func (e *Engine) Dispatch(cfg *Profile, w *dalia.Window) Decision {
	diff := e.classifier.DifficultyID(w)
	if cfg.UsesSimple(diff) {
		return Decision{Model: cfg.Simple, Offloaded: false, Difficulty: diff}
	}
	return Decision{Model: cfg.Complex, Offloaded: cfg.Exec == Hybrid, Difficulty: diff}
}

// Predict runs the full runtime path for one window: dispatch, then the
// selected model. The returned Decision carries the estimate.
func (e *Engine) Predict(cfg *Profile, w *dalia.Window) Decision {
	d := e.Dispatch(cfg, w)
	d.HR = d.Model.EstimateHR(w)
	return d
}

// Confidence is the belief layer's per-window summary of how certain the
// tracker already is, measured on the predictive distribution — i.e.
// before this window's estimate exists, which is the only information an
// offload decision can act on.
type Confidence struct {
	Width   float64 // central credible-interval width, BPM
	Entropy float64 // predictive entropy, nats
}

// UncertaintyGate demotes offloads when the tracker is already confident:
// a bound is active when > 0, and the gate holds when every active bound
// is satisfied. The zero gate is inert.
type UncertaintyGate struct {
	MaxWidth   float64 // demote when interval width < MaxWidth BPM
	MaxEntropy float64 // demote when predictive entropy < MaxEntropy nats
}

// Active reports whether the gate can ever demote a decision.
func (g UncertaintyGate) Active() bool { return g.MaxWidth > 0 || g.MaxEntropy > 0 }

// Confident reports whether every active bound is satisfied — the belief
// is tight enough that the phone-side model is unlikely to change the
// track.
func (g UncertaintyGate) Confident(c Confidence) bool {
	if !g.Active() {
		return false
	}
	if g.MaxWidth > 0 && !(c.Width < g.MaxWidth) {
		return false
	}
	if g.MaxEntropy > 0 && !(c.Entropy < g.MaxEntropy) {
		return false
	}
	return true
}

// DispatchGated is Dispatch with the uncertainty gate of the belief
// layer: an offload decision is demoted to the simple local model when
// the gate is active and the belief is confident. Local decisions are
// never touched — the gate only trims radio escalations, so at worst the
// policy falls back to the paper's pure-local arm for that window. The
// second return reports whether a demotion happened.
func (e *Engine) DispatchGated(cfg *Profile, w *dalia.Window, g UncertaintyGate, c Confidence) (Decision, bool) {
	d := e.Dispatch(cfg, w)
	if !d.Offloaded || !g.Confident(c) {
		return d, false
	}
	return Decision{Model: cfg.Simple, Offloaded: false, Difficulty: d.Difficulty}, true
}
