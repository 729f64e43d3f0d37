package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/snapshot"
)

// TestStepRouteCostsMatchModels: the Step resolves model costs once per
// configuration, so every routed window's Cost and DispatchedCost must
// equal what the hw tables give for Model and Dispatched — on simple,
// local-complex, offloaded and fallback windows, across reselections,
// and after Restore into any configuration of the store, reselection
// targets or not.
func TestStepRouteCostsMatchModels(t *testing.T) {
	sys, engine, ws := fixture(t)
	check := func(name string, step *Step, t0 float64, n int) (kinds [4]int) {
		t.Helper()
		var r Route
		for i := 0; i < n; i++ {
			w := &ws[i%len(ws)]
			if err := step.Window(&r, t0+float64(i)*sys.PeriodSeconds, w, true); err != nil {
				t.Fatal(err)
			}
			if got, want := r.Cost, sys.Cost(r.Model); got != want {
				t.Fatalf("%s window %d: Cost %+v, %s costs %+v", name, i, got, r.Model.Name(), want)
			}
			if got, want := r.DispatchedCost, sys.Cost(r.Dispatched); got != want {
				t.Fatalf("%s window %d: DispatchedCost %+v, %s costs %+v", name, i, got, r.Dispatched.Name(), want)
			}
			switch {
			case r.Fallback:
				kinds[0]++
			case r.Offloaded:
				kinds[1]++
			case r.Simple:
				kinds[2]++
			default:
				kinds[3]++
			}
		}
		return kinds
	}

	inj, err := faults.NewInjector(faults.Gym(), 5)
	if err != nil {
		t.Fatal(err)
	}
	step, err := NewStep(sys, engine, core.MAEConstraint(6), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := step.Start(0); err != nil {
		t.Fatal(err)
	}
	kinds := check("gym", step, 0, 3000)
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
		t.Fatalf("gym run did not reach every route (fallback, offloaded, simple, local): %v", kinds)
	}

	for _, p := range engine.Profiles() {
		step, err := NewStep(sys, engine, core.MAEConstraint(6), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := step.Restore(&Carry{Active: p.Name(), EngineUp: true}); err != nil {
			t.Fatal(err)
		}
		check(p.Name(), step, 0, 200)
	}
}

// TestStepRestoreTyped: Restore types every carry it refuses — a state
// the Step cannot host as stale, impossible values as corrupt — and a
// refused carry leaves the Step exactly as it was.
func TestStepRestoreTyped(t *testing.T) {
	sys, engine, ws := fixture(t)
	step, err := NewStep(sys, engine, core.MAEConstraint(6),
		mustInjector(t, faults.WorstCase(), 9), beliefPolicy(t, ws))
	if err != nil {
		t.Fatal(err)
	}
	if err := step.Start(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		var r Route
		if err := step.Window(&r, float64(i)*sys.PeriodSeconds, &ws[i], true); err != nil {
			t.Fatal(err)
		}
		step.Complete(&Ledger{}, &r, r.Model.EstimateHR(&ws[i]), ws[i].TrueHR, 0, false)
	}
	var want Carry
	step.Save(&want)

	cases := []struct {
		name string
		mod  func(c *Carry)
		err  error
	}{
		{"unknown configuration", func(c *Carry) { c.Active = "no-such-config" }, snapshot.ErrStale},
		{"no belief", func(c *Carry) { c.Belief, c.Post = false, nil }, snapshot.ErrStale},
		{"negative cooldown", func(c *Carry) { c.Cooldown = -1 }, snapshot.ErrCorrupt},
		{"NaN posterior bin", func(c *Carry) { c.Post[3] = math.NaN() }, snapshot.ErrCorrupt},
		{"negative posterior bin", func(c *Carry) { c.Post[3] = -c.Post[3] }, snapshot.ErrCorrupt},
		{"short posterior", func(c *Carry) { c.Post = c.Post[:2] }, snapshot.ErrCorrupt},
		{"off the simplex", func(c *Carry) { c.Post[0] += 0.5 }, snapshot.ErrCorrupt},
	}
	for _, tc := range cases {
		c := want
		c.Post = append([]float64(nil), want.Post...)
		tc.mod(&c)
		if err := step.Restore(&c); !errors.Is(err, tc.err) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.err)
		}
		var got Carry
		if step.Save(&got); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a refused carry changed the step", tc.name)
		}
	}
	c := want
	c.Post = append([]float64(nil), want.Post...)
	if err := step.Restore(&c); err != nil {
		t.Fatalf("pristine carry refused: %v", err)
	}
}
