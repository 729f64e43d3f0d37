package serve

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/sim"
)

// TestSimServeAgree pins the offline simulator and the streaming engine
// to one per-window pipeline: a lockstep session fed one window per
// cycle at t = k·period must fold exactly the sim.Ledger the simulator
// folds for the same windows, scenario and fault seed, with the
// simulator's injector seeded the way NewSession forks a session's
// stream. Both route each window through sim.Step.Window and tally it
// through sim.Step.Complete, so every counter, energy and error sum must
// compare equal as a whole — and so must the step's end-of-run
// sim.Carry: the active configuration, the protocol state and the belief
// posterior, bit for bit.
//
// Serve has no model of the watch MCU being busy with a local inference,
// so the fixture's complex model has 3 M ops: its local run takes
// 0.825 s, inside the 2 s period, and the simulator never skips a
// window. With the default 12 M-op model (3.3 s locally) the simulator
// skips the windows that arrive while a local complex run is still
// going, and the two engines diverge by design.
func TestSimServeAgree(t *testing.T) {
	sys, eng, ws := buildFixture(3_000_000)
	const windows = 3000
	period := sys.PeriodSeconds
	constraint := core.MAEConstraint(6)

	tab, err := belief.LearnWindows(belief.DefaultGrid(), ws, belief.DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	gated := belief.DefaultPolicy(tab)
	// Motion-scaled sigmas, so the test also pins serve's per-window
	// motion RMS to the simulator's precomputed table.
	gated.Sigmas = map[string]belief.SigmaSpec{
		"cheap": {Base: 8, Motion: 4},
		"best":  {Base: 2.5, Motion: 1},
	}
	gated.Smooth = true
	gated.GateBPM = 40

	var totalGated uint64
	for _, name := range []string{"none", "commute", "gym", "worstcase"} {
		sc, ok := faults.ByName(name)
		if !ok {
			t.Fatalf("unknown scenario %q", name)
		}
		for _, pol := range []*belief.Policy{nil, gated} {
			for _, id := range []string{"u0", "u1", "u2", "u3"} {
				label := fmt.Sprintf("%s/belief=%v/%s", name, pol != nil, id)
				const seed = 7

				inj, err := faults.NewInjector(sc, faults.NewRand(seed).Fork("session:"+id).Seed())
				if err != nil {
					t.Fatal(err)
				}
				var st sim.State
				err = sim.RunState(sim.Config{
					System:          sys,
					Engine:          eng,
					Constraint:      constraint,
					Windows:         ws,
					DurationSeconds: windows * period,
					Faults:          inj,
					Belief:          pol,
				}, &st, 0)
				if err != nil {
					t.Fatalf("%s: sim: %v", label, err)
				}
				if st.Res.SkippedWindows != 0 {
					t.Fatalf("%s: sim skipped %d windows; the fixture must keep local runs inside the period", label, st.Res.SkippedWindows)
				}

				vc := NewVirtualClock()
				e, err := Open(Config{
					Engine:     eng,
					System:     sys,
					Constraint: constraint,
					Clock:      vc,
					Faults:     &sc,
					FaultSeed:  seed,
					Belief:     pol,
				})
				if err != nil {
					t.Fatal(err)
				}
				s, err := e.NewSession(id)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < windows; k++ {
					if st := s.Submit(&ws[k%len(ws)], vc.Now()); st != SubmitOK {
						t.Fatalf("%s: window %d: %v", label, k, st)
					}
					e.Tick()
					vc.Advance(period)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				results := s.Drain()
				got := s.Stats()

				want := st.Ledger
				if got.Ledger != want {
					t.Errorf("%s: ledgers differ:\nsim   %+v\nserve %+v", label, want, got.Ledger)
				}
				var carry sim.Carry
				s.step.Save(&carry)
				if !reflect.DeepEqual(carry, st.Carry) {
					t.Errorf("%s: carries differ:\nsim   %+v\nserve %+v", label, st.Carry, carry)
				}
				if len(carry.Post) == 0 && pol != nil {
					t.Fatalf("%s: belief session carries no posterior", label)
				}
				// The reported estimates are the ones the ledger scored.
				var absErrSum float64
				for k, r := range results {
					if r.Outcome.Discarded() {
						t.Fatalf("%s: window %d discarded (%v)", label, k, r.Outcome)
					}
					absErrSum += models.AbsError(r.HR, ws[k%len(ws)].TrueHR)
				}
				if uint64(len(results)) != want.Predictions || absErrSum != want.AbsErrSum {
					t.Errorf("%s: results: %d windows, error sum %v; sim ledger %d, %v",
						label, len(results), absErrSum, want.Predictions, want.AbsErrSum)
				}
				totalGated += want.GatedWindows
			}
		}
	}
	if totalGated == 0 {
		t.Error("the uncertainty gate never demoted an offload: the belief cases pin nothing")
	}
}
