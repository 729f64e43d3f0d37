package serve

import (
	"fmt"
	"testing"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/sim"
)

// TestSimServeAgree pins the offline simulator and the streaming engine
// to one per-window pipeline: a lockstep session fed one window per
// cycle at t = k·period must report exactly what sim.Run reports for the
// same windows, scenario and fault seed, with the simulator's injector
// seeded the way NewSession forks a session's stream.
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
	gated.Sigmas = map[string]belief.SigmaSpec{
		"cheap": {Base: 8, Motion: 0},
		"best":  {Base: 2.5, Motion: 0},
	}
	gated.Smooth = true
	gated.GateBPM = 40

	totalGated := 0
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
				want, err := sim.Run(sim.Config{
					System:          sys,
					Engine:          eng,
					Constraint:      constraint,
					Windows:         ws,
					DurationSeconds: windows * period,
					Faults:          inj,
					Belief:          pol,
				})
				if err != nil {
					t.Fatalf("%s: sim: %v", label, err)
				}
				if want.SkippedWindows != 0 {
					t.Fatalf("%s: sim skipped %d windows; the fixture must keep local runs inside the period", label, want.SkippedWindows)
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

				var absErrSum float64
				for k, r := range results {
					if r.Outcome.Discarded() {
						t.Fatalf("%s: window %d discarded (%v)", label, k, r.Outcome)
					}
					absErrSum += models.AbsError(r.HR, ws[k%len(ws)].TrueHR)
				}
				mae := absErrSum / float64(len(results))

				checks := []struct {
					what      string
					sim, serv any
				}{
					{"predictions", want.Predictions, len(results)},
					{"offloaded", uint64(want.Offloaded), got.Offloaded},
					{"fallback windows", uint64(want.FallbackWindows), got.FallbackWindows},
					{"deadline misses", uint64(want.DeadlineMisses), got.DeadlineMisses},
					{"retries", uint64(want.Retries), got.Retries},
					{"timeouts", uint64(want.Timeouts), got.Timeouts},
					{"supervision drops", uint64(want.SupervisionDrops), got.SupervisionDrops},
					{"reselections", uint64(want.Reselections), got.Reselections},
					{"gated windows", uint64(want.GatedOffloads), got.GatedWindows},
					{"radio energy", want.Watch.Radio, got.RadioEnergy},
					{"phone energy", want.PhoneEnergy, got.PhoneEnergy},
					{"retransmit energy", want.RetransmitEnergy, got.RetransmitEnergy},
					{"MAE", want.MAE, mae},
				}
				for _, c := range checks {
					if c.sim != c.serv {
						t.Errorf("%s: %s: sim %v, serve %v", label, c.what, c.sim, c.serv)
					}
				}
				totalGated += want.GatedOffloads
			}
		}
	}
	if totalGated == 0 {
		t.Error("the uncertainty gate never demoted an offload: the belief cases pin nothing")
	}
}
