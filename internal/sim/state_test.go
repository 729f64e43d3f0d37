package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw/ble"
	"repro/internal/hw/power"
	"repro/internal/snapshot"
)

// smallBattery builds a battery that exhausts partway through the
// segmented-run horizon, so the early-return path crosses segment
// boundaries too.
func smallBattery(capacity power.Energy) *power.Battery {
	b := &power.Battery{Capacity: capacity}
	if err := b.Restore(capacity); err != nil {
		panic(err)
	}
	return b
}

// TestRunStateSegmentedBitwise pins the tentpole invariant: running a
// scenario in one RunState call or in any partition of segments — with
// the state round-tripped through the CHSS codec and the config rebuilt
// from scratch at every boundary, exactly as a crash-resumed process
// would — yields bitwise-identical Results.
func TestRunStateSegmentedBitwise(t *testing.T) {
	sys, engine, ws := fixture(t)
	pol := beliefPolicy(t, ws)
	cases := []struct {
		name string
		mk   func(tb *testing.T) Config // fresh stateful parts per call
	}{
		{"clean", func(tb *testing.T) Config {
			return Config{System: sys, Engine: engine, Constraint: core.MAEConstraint(6),
				Windows: ws, DurationSeconds: 600, IncludeSensors: true}
		}},
		{"clean+trace", func(tb *testing.T) Config {
			// Outages [80, 120) and [300, 400): both segment boundaries
			// below fall inside one, so the link-edge reselection state
			// crosses them.
			tr, err := ble.NewConnectivityTrace(true, 80, 120, 300, 400)
			if err != nil {
				tb.Fatal(err)
			}
			return Config{System: sys, Engine: engine, Constraint: core.MAEConstraint(6),
				Windows: ws, DurationSeconds: 600, IncludeSensors: true, Trace: tr}
		}},
		{"belief", func(tb *testing.T) Config {
			return Config{System: sys, Engine: engine, Constraint: core.MAEConstraint(6),
				Windows: ws, DurationSeconds: 600, IncludeSensors: true, Belief: pol}
		}},
		{"faults", func(tb *testing.T) Config {
			return Config{System: sys, Engine: engine, Constraint: core.MAEConstraint(6),
				Windows: ws, DurationSeconds: 600, IncludeSensors: true,
				Faults: mustInjector(tb, faults.WorstCase(), 42)}
		}},
		{"faults+belief+battery", func(tb *testing.T) Config {
			return Config{System: sys, Engine: engine, Constraint: core.MAEConstraint(6),
				Windows: ws, DurationSeconds: 600, IncludeSensors: true, Belief: pol,
				Battery: power.NewLiIon370(),
				Faults:  mustInjector(tb, faults.WorstCase(), 7)}
		}},
		{"battery-exhaustion", func(tb *testing.T) Config {
			return Config{System: sys, Engine: engine, Constraint: core.MAEConstraint(6),
				Windows: ws, DurationSeconds: 600, IncludeSensors: true,
				Battery: smallBattery(0.15),
				Faults:  mustInjector(tb, faults.WorstCase(), 11)}
		}},
	}
	const hash = 0xc0ffee
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mono, err := Run(tc.mk(t))
			if err != nil {
				t.Fatal(err)
			}
			// Segment at arbitrary points, including one off the period grid.
			st := &State{}
			for _, stop := range []float64{100, 350.7, 0} {
				// Cross-process boundary: codec round trip + fresh config.
				blob := EncodeState(st, hash)
				st2, err := DecodeState(blob, hash)
				if err != nil {
					t.Fatalf("DecodeState at stop=%v: %v", stop, err)
				}
				if !bytes.Equal(EncodeState(st2, hash), blob) {
					t.Fatalf("re-encode at stop=%v not byte-identical", stop)
				}
				st = st2
				if err := RunState(tc.mk(t), st, stop); err != nil {
					t.Fatalf("RunState(stop=%v): %v", stop, err)
				}
				if stop == 0 && !st.Done {
					t.Fatal("full run did not mark Done")
				}
			}
			if !reflect.DeepEqual(mono, st.Res) {
				t.Fatalf("segmented result differs from monolithic:\n%+v\nvs\n%+v", mono, st.Res)
			}
			mj, _ := json.Marshal(mono)
			sj, _ := json.Marshal(st.Res)
			if !bytes.Equal(mj, sj) {
				t.Error("segmented JSON differs from monolithic")
			}
			// A completed state is a fixed point: further calls no-op.
			before := st.Res
			if err := RunState(tc.mk(t), st, 0); err != nil {
				t.Fatalf("RunState on Done state: %v", err)
			}
			if !reflect.DeepEqual(before, st.Res) {
				t.Error("RunState on a Done state changed the result")
			}
		})
	}
}

// TestRunStateConfigMismatch: a state resumed under a structurally
// different configuration must fail loudly, not silently diverge, and
// typed as stale, so callers can fall back to a fresh run.
func TestRunStateConfigMismatch(t *testing.T) {
	sys, engine, ws := fixture(t)
	base := Config{System: sys, Engine: engine, Constraint: core.MAEConstraint(6),
		Windows: ws, DurationSeconds: 600, IncludeSensors: true}
	st := &State{}
	if err := RunState(base, st, 100); err != nil {
		t.Fatal(err)
	}

	withBelief := base
	withBelief.Belief = beliefPolicy(t, ws)
	stc := *st
	if err := RunState(withBelief, &stc, 0); !errors.Is(err, snapshot.ErrStale) {
		t.Errorf("belief-presence mismatch = %v, want ErrStale", err)
	}

	withBattery := base
	withBattery.Battery = power.NewLiIon370()
	stc = *st
	if err := RunState(withBattery, &stc, 0); !errors.Is(err, snapshot.ErrStale) {
		t.Errorf("battery-presence mismatch = %v, want ErrStale", err)
	}

	stc = *st
	stc.Carry.Active = "no-such-config"
	if err := RunState(base, &stc, 0); !errors.Is(err, snapshot.ErrStale) {
		t.Errorf("unknown active configuration = %v, want ErrStale", err)
	}
}

// TestDecodeStateRejectsCorruption drives every corruption kind over an
// encoded mid-run state: damaged frames must never decode.
func TestDecodeStateRejectsCorruption(t *testing.T) {
	sys, engine, ws := fixture(t)
	cfg := Config{System: sys, Engine: engine, Constraint: core.MAEConstraint(6),
		Windows: ws, DurationSeconds: 600, IncludeSensors: true,
		Faults: mustInjector(t, faults.WorstCase(), 42)}
	st := &State{}
	if err := RunState(cfg, st, 200); err != nil {
		t.Fatal(err)
	}
	blob := EncodeState(st, 0xabc)
	for _, kind := range faults.CorruptKinds() {
		rng := faults.NewRand(5)
		for i := 0; i < 100; i++ {
			bad := faults.Corrupt(blob, kind, rng)
			if _, err := DecodeState(bad, 0xabc); err == nil {
				t.Fatalf("%v corruption %d decoded cleanly", kind, i)
			}
		}
	}
	if _, err := DecodeState(blob, 0xdef); !errors.Is(err, snapshot.ErrStale) {
		t.Errorf("config-hash mismatch = %v, want ErrStale", err)
	}
	// Frames of the retired sim-state kinds (the layout before the link
	// edge folded into the carry's EngineUp, the one before the counters
	// became a Ledger, and the one before the belief posterior joined the
	// Carry) are stale, not misparsed.
	for _, kind := range []snapshot.Kind{2, 4, 9} {
		if _, err := DecodeState(snapshot.NewWriter(kind, 0xabc).Finish(), 0xabc); !errors.Is(err, snapshot.ErrStale) {
			t.Errorf("retired sim-state kind %d = %v, want ErrStale", kind, err)
		}
	}
	if _, err := DecodeState(blob, 0xabc); err != nil {
		t.Errorf("pristine blob rejected: %v", err)
	}
}

// TestDecodeStateValidation: CRC-intact frames carrying impossible field
// values are rejected as corrupt.
func TestDecodeStateValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	mut := []struct {
		name string
		mod  func(st *State)
	}{
		{"negative WI", func(st *State) { st.WI = -3 }},
		{"negative T", func(st *State) { st.T = -1 }},
		{"started without config", func(st *State) { st.Started = true; st.Carry.Active = "" }},
		{"NaN phone energy", func(st *State) { st.Ledger.PhoneEnergy = power.Energy(nan) }},
		{"negative radio energy", func(st *State) { st.Ledger.RadioEnergy = -5 }},
		{"infinite error sum", func(st *State) { st.Ledger.AbsErrSum = inf }},
		{"NaN belief width sum", func(st *State) { st.Ledger.BeliefWidthSum = nan }},
		{"more covered than predicted", func(st *State) { st.Ledger.BeliefCovered = 1 }},
		{"more fault windows than predicted", func(st *State) { st.Ledger.FaultWindows = 1 }},
		{"NaN busy-until", func(st *State) { st.BusyUntil = nan }},
		{"infinite idle energy", func(st *State) { st.Res.Watch.Idle = power.Energy(inf) }},
		{"negative battery drain", func(st *State) { st.Res.BatteryDrain = -1 }},
		{"NaN state of charge", func(st *State) { st.Res.FinalSoC = nan }},
		{"negative skipped windows", func(st *State) { st.Res.SkippedWindows = -1 }},
		{"negative hysteresis counter", func(st *State) { st.Carry.Cooldown = -1 }},
		{"NaN holdoff", func(st *State) { st.Carry.LinkDownUntil = nan }},
		{"NaN posterior bin", func(st *State) { st.Carry.Post[1] = nan }},
		{"negative posterior bin", func(st *State) { st.Carry.Post[0] = -0.5; st.Carry.Post[1] = 1.5 }},
	}
	base := func() *State {
		return &State{Started: true, T: 10, WI: 5,
			Carry: Carry{Active: "cfg", Belief: true, Post: []float64{0.25, 0.25, 0.5}}}
	}
	if _, err := DecodeState(EncodeState(base(), 1), 1); err != nil {
		t.Fatalf("unmodified state rejected: %v", err)
	}
	for _, tc := range mut {
		st := base()
		tc.mod(st)
		blob := EncodeState(st, 1)
		if _, err := DecodeState(blob, 1); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}
