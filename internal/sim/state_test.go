package sim

import (
	"bytes"
	"encoding/json"
	"errors"
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
	b.Recharge()
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
// different configuration must fail loudly, not silently diverge.
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
	if err := RunState(withBelief, &stc, 0); err == nil {
		t.Error("belief-presence mismatch accepted")
	}

	withBattery := base
	withBattery.Battery = power.NewLiIon370()
	stc = *st
	if err := RunState(withBattery, &stc, 0); err == nil {
		t.Error("battery-presence mismatch accepted")
	}

	stc = *st
	stc.ActiveConfig = "no-such-config"
	if err := RunState(base, &stc, 0); err == nil {
		t.Error("unknown active configuration accepted")
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
	// A frame of the retired sim-state kind (the layout before the link
	// edge folded into Proto.EngineUp) is stale, not misparsed.
	if _, err := DecodeState(snapshot.NewWriter(2, 0xabc).Finish(), 0xabc); !errors.Is(err, snapshot.ErrStale) {
		t.Errorf("retired sim-state kind = %v, want ErrStale", err)
	}
	if _, err := DecodeState(blob, 0xabc); err != nil {
		t.Errorf("pristine blob rejected: %v", err)
	}
}

// TestDecodeStateValidation: CRC-intact frames carrying impossible field
// values are rejected as corrupt.
func TestDecodeStateValidation(t *testing.T) {
	mut := []struct {
		name string
		mod  func(st *State)
	}{
		{"negative WI", func(st *State) { st.WI = -3 }},
		{"negative T", func(st *State) { st.T = -1 }},
		{"belief flag without posterior", func(st *State) { st.HasBelief = true }},
		{"started without config", func(st *State) { st.Started = true; st.ActiveConfig = "" }},
	}
	for _, tc := range mut {
		st := &State{Started: true, ActiveConfig: "cfg", T: 10, WI: 5}
		tc.mod(st)
		blob := EncodeState(st, 1)
		if _, err := DecodeState(blob, 1); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}
