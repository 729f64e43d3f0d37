// Command chrisfleet simulates a synthetic fleet of CHRIS users: each
// user gets sampled physiology, their own activity recording, a cohort
// scenario/constraint drawn from the mix, and a full sim.Run over the
// requested horizon; results stream into bounded-memory population
// aggregates (distributions, per-cohort breakdowns, the fleet-wide
// energy/accuracy Pareto front).
//
// chrisfleet -h lists the flags; internal/cli declares and checks them.
// -mix is a comma list of scenario:constraint:weight cohorts, e.g.
// "none:mae4:0.5,commute:mj1:0.5" (mae<bpm> or mj<millijoules>); empty
// uses the built-in default mix. The summary is a pure function of
// (-users -days -mix -seed): the same seed reproduces it byte for byte
// across runs and worker counts, which CI uses as a replay gate via
// -json. -checkpoint enables crash-safe progress; -resume continues an
// interrupted run from its checkpoint and yields the same bytes as an
// uninterrupted one. -snapdays N additionally snapshots each in-flight
// user's mid-day state every N simulated days, so a resume continues
// interrupted users from their last segment instead of re-simulating
// their whole horizon.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/fleet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chrisfleet: ")
	o, err := cli.ParseFleet(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	cfg := o.Config
	if o.Verbose {
		every := max(cfg.Users/20, 1)
		cfg.OnUser = func(r *fleet.UserResult) {
			if (r.ID+1)%every == 0 || r.ID+1 == cfg.Users {
				log.Printf("user %d/%d done", r.ID+1, cfg.Users)
			}
		}
	}
	sum, err := fleet.Run(cfg)
	if errors.Is(err, fleet.ErrInterrupted) {
		log.Fatal("interrupted; rerun with -resume to continue")
	}
	if err != nil {
		log.Fatal(err)
	}
	o.Print(sum, func() { printSummary(sum) })
}

func printSummary(s *fleet.Summary) {
	fmt.Printf("fleet: %d users × %g days (seed %d), %d windows\n", s.Users, s.Days, s.Seed, s.Windows)
	fmt.Printf("mix:   %s\n", s.Mix)

	fmt.Println("\npopulation distributions:")
	for _, name := range []string{"mae", "energy_day_mj", "life_h", "offload_frac", "soc_final"} {
		d, ok := s.Overall[name]
		if !ok {
			continue
		}
		fmt.Printf("  %-14s mean %8.2f   p05 %8.2f   p50 %8.2f   p95 %8.2f\n",
			name, d.Mean, d.P05, d.P50, d.P95)
	}

	fmt.Println("\ncohorts:")
	for _, c := range s.Cohorts {
		mae := c.Metrics["mae"]
		life := c.Metrics["life_h"]
		relaxed := c.Metrics["relaxed"]
		fmt.Printf("  %-18s %6d users   mae p50 %6.2f BPM   life p05 %7.1f h   relaxed %4.1f%%\n",
			c.Name, c.Users, mae.P50, life.P05, 100*relaxed.Mean)
	}

	fmt.Println("\nenergy/accuracy Pareto (cohort means):")
	pts := append([]fleet.ParetoPoint(nil), s.Pareto...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].EnergyDayMJ < pts[j].EnergyDayMJ })
	for _, p := range pts {
		mark := " "
		if p.OnFront {
			mark = "*"
		}
		fmt.Printf("  %s %-18s %10.1f mJ/day   %6.2f BPM   life p05 %7.1f h\n",
			mark, p.Cohort, p.EnergyDayMJ, p.MAE, p.LifeP05H)
	}
	fmt.Println("  (* = on the non-dominated front)")
}
