package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// TestStepRouteCostsMatchModels: the Step resolves model costs once per
// configuration, so every routed window's Cost and DispatchedCost must
// equal what the hw tables give for Model and Dispatched — on simple,
// local-complex, offloaded and fallback windows, across reselections,
// and after Resume into any configuration of the store, reselection
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
	step := NewStep(sys, engine, core.MAEConstraint(6), Protocol{}, inj, nil, nil)
	if err := step.Start(0); err != nil {
		t.Fatal(err)
	}
	kinds := check("gym", step, 0, 3000)
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
		t.Fatalf("gym run did not reach every route (fallback, offloaded, simple, local): %v", kinds)
	}

	for _, p := range engine.Profiles() {
		step := NewStep(sys, engine, core.MAEConstraint(6), Protocol{}, nil, nil, nil)
		if err := step.Resume(p.Name(), ProtoState{EngineUp: true}); err != nil {
			t.Fatal(err)
		}
		check(p.Name(), step, 0, 200)
	}
}
