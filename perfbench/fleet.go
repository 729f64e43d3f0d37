package main

import (
	"errors"
	"fmt"
	"reflect"

	"repro/internal/fleet"
	"repro/internal/hw/power"
	"repro/internal/sim"
)

const (
	// fleetUsers × one day on the default mix is one op: a whole small
	// fleet.
	fleetUsers = 16
	// fleetCycle is how many fleets a run cycles through, each with its
	// own seed: per-user results differ so much (a 16-user fleet's mean
	// offload share spans 0.25–0.53 across seeds) that the deterministic
	// metrics average over the first fleetCycle ops, 512 users.
	fleetCycle = 32
	// windowsPerDay is one day of 2 s prediction windows.
	windowsPerDay = 43200
)

// fleetWL is the fleet workload: op i runs Fleet.Run over fleet i mod
// fleetCycle, 16 users × 1 day on the default mix, belief off, one
// worker. Fleet k's seed is derived from the run's seed and k.
type fleetWL struct {
	o      options
	fleets []*fleet.Fleet
	// sums holds the first cycle's summaries; later ops must repeat them.
	sums []*fleet.Summary
	// checked is set once a traced op has compared the per-user shadow
	// path with SimulateUser.
	checked bool
}

func newFleet(o options) *fleetWL { return &fleetWL{o: o} }

func (w *fleetWL) prime() error { return nil }

func (w *fleetWL) cycle() int {
	if w.o.short {
		return 2
	}
	return fleetCycle
}

func (w *fleetWL) setup(tr *tracer) error {
	w.fleets = w.fleets[:0]
	for k := 0; k < w.cycle(); k++ {
		cfg := fleet.DefaultConfig()
		cfg.Users = fleetUsers
		cfg.Days = 1
		cfg.Seed = uint64(w.o.seed)*fleetCycle + uint64(k)
		cfg.Workers = 1
		id := tr.begin("fleet.new", -1, -1)
		f, err := fleet.New(cfg)
		tr.end(id, 0)
		if err != nil {
			return err
		}
		w.fleets = append(w.fleets, f)
	}
	return nil
}

func (w *fleetWL) prepare(*tracer) error { return nil }

func (w *fleetWL) minOps() int { return w.cycle() }

func (w *fleetWL) op(i int, tr *tracer, parent int) (int, error) {
	k := i % len(w.fleets)
	sum, err := w.fleets[k].Run()
	if err != nil {
		return 0, err
	}
	if want := int64(fleetUsers) * windowsPerDay; sum.Windows != want {
		return 0, fmt.Errorf("summary has %d windows, want %d", sum.Windows, want)
	}
	if len(w.sums) == k {
		w.sums = append(w.sums, sum)
	} else if !reflect.DeepEqual(sum, w.sums[k]) {
		return 0, fmt.Errorf("fleet %d: summary differs from its first run's", k)
	}
	return int(sum.Windows), nil
}

// after shadows a traced op: every user is rebuilt and simulated through
// the public per-user path, which must match SimulateUser bitwise; the
// op's time left over is scheduling and aggregation.
func (w *fleetWL) after(i int, tr *tracer, op int) error {
	if tr == nil {
		return nil
	}
	f := w.fleets[i%len(w.fleets)]
	for id := 0; id < fleetUsers; id++ {
		var u *fleet.User
		var err error
		tr.shadow("fleet.build_user", op, i, 1, func() { u, err = f.BuildUser(id) })
		if err != nil {
			return err
		}
		var st sim.State
		scfg := f.SimConfig(u, power.NewLiIon370())
		name := "sim.run.clean"
		if u.Injector != nil {
			name = "sim.run.faults"
		}
		sid := tr.shadow(name, op, i, 0, func() { err = sim.RunState(scfg, &st, 0) })
		if err != nil {
			return err
		}
		res := &st.Res
		windows := res.Predictions + res.SkippedWindows
		tr.spans[sid].N = windows
		if !w.checked {
			want, err := f.SimulateUser(id)
			if err != nil {
				return err
			}
			if fmt.Sprintf("%#v", want.Result) != fmt.Sprintf("%#v", *res) {
				return fmt.Errorf("user %d: BuildUser + sim.RunState differs from SimulateUser", id)
			}
		}
		tr.sample("sim.skipped_frac", float64(res.SkippedWindows)/float64(windows))
		tr.sample("sim.fallback", float64(res.FallbackWindows))
		tr.sample("sim.retries", float64(res.Retries))
		tr.sample("sim.reselections", float64(res.Reselections))
		tr.sample("sim.offloaded", float64(res.Offloaded))
	}
	w.checked = true
	return nil
}

// finish returns the means over the first cycle's fleets.
func (w *fleetWL) finish() (quality, error) {
	if len(w.sums) < w.cycle() {
		return quality{}, errors.New("the first fleet cycle did not complete")
	}
	var q quality
	for _, s := range w.sums {
		mae, energy, off := s.Overall["mae"], s.Overall["energy_day_mj"], s.Overall["offload_frac"]
		q.successRate += float64(mae.Count) / float64(s.Users)
		q.maeBPM += mae.Mean
		q.watchUJ += energy.Mean * 1e3 / windowsPerDay
		q.offloadFrac += off.Mean
	}
	n := float64(len(w.sums))
	q.successRate /= n
	q.maeBPM /= n
	q.watchUJ /= n
	q.offloadFrac /= n
	return q, nil
}

func (w *fleetWL) layers(tr *tracer) map[string]float64 {
	out := map[string]float64{}
	put := func(name string, v float64, ok bool) {
		if ok {
			out[name] = v
		}
	}
	v, ok := tr.medianMs("fleet.new")
	put("fleet.new_ms", v, ok)
	v, ok = tr.medianMs("fleet.build_user")
	put("fleet.build_user_ms", v, ok)
	v, ok = tr.selfMs("op")
	put("fleet.residual_ms", v, ok)
	var runs []float64
	for _, n := range []string{"sim.run.clean", "sim.run.faults"} {
		for _, sp := range tr.named(n) {
			runs = append(runs, sp.ms())
		}
	}
	if len(runs) > 0 {
		out["sim.run_ms"] = median(runs)
	}
	v, ok = tr.perUnitMs("sim.run.clean")
	put("sim.clean_ns_per_window", v*1e6, ok)
	v, ok = tr.perUnitMs("sim.run.faults")
	put("sim.faults_ns_per_window", v*1e6, ok)
	for _, c := range []string{"skipped_frac", "fallback", "retries", "reselections"} {
		v, ok := tr.mean("sim." + c)
		put("sim."+c, v, ok)
	}
	v, ok = tr.ratio("sim.offloaded", "sim.fallback")
	put("sim.offload_success", v, ok)
	return out
}

func (w *fleetWL) close() {}
