// Command chrissim runs whole-system scenarios on the CHRIS smartwatch
// simulator: battery-life projections under a chosen constraint, BLE
// dropout traces with configuration re-selection, and fault-injected
// runs over a lossy link with retry/timeout/backoff and graceful
// degradation.
//
// chrissim -h lists the flags; internal/cli declares and checks them.
// -dropout N cuts the link every N simulated seconds (down for N/4).
// -faults picks a chaos scenario (see internal/faults); -seed makes the
// injected packet loss replayable — the same seed reproduces the run
// byte for byte, which CI uses as a deterministic-replay gate via -json.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/faults"
	"repro/internal/hw/ble"
	"repro/internal/hw/power"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chrissim: ")
	o, err := cli.ParseSim(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	var injector *faults.Injector
	if sc := o.Scenario(); sc != nil {
		if injector, err = faults.NewInjector(*sc, uint64(o.Seed)); err != nil {
			log.Fatal(err)
		}
	}
	run, err := o.Build()
	if err != nil {
		log.Fatal(err)
	}

	var trace *ble.ConnectivityTrace
	if o.Dropout > 0 {
		var toggles []float64
		for t := o.Dropout; t < o.Hours*3600; t += o.Dropout {
			toggles = append(toggles, t, t+o.Dropout/4)
		}
		if trace, err = ble.NewConnectivityTrace(true, toggles...); err != nil {
			log.Fatal(err)
		}
	}

	res, err := sim.Run(sim.Config{
		System:          run.Suite.Sys,
		Engine:          run.Engine,
		Constraint:      run.Constraint,
		Trace:           trace,
		Windows:         run.Suite.TestWindows,
		DurationSeconds: o.Hours * 3600,
		Battery:         power.NewLiIon370(),
		IncludeSensors:  o.Sensors,
		Faults:          injector,
		Belief:          run.Belief,
	})
	if err != nil {
		log.Fatal(err)
	}
	o.Print(res, func() {
		fmt.Printf("scenario: %.1f h, constraint %v, dropout %v s\n", o.Hours, run.Constraint, o.Dropout)
		fmt.Printf("active config:        %s\n", res.ActiveConfig)
		fmt.Printf("predictions:          %d (skipped %d, link-down windows %d, reselections %d)\n",
			res.Predictions, res.SkippedWindows, res.LinkDownWindows, res.Reselections)
		fmt.Printf("offloaded:            %d (%.1f%%)\n", res.Offloaded, pct(res.Offloaded, res.Predictions))
		fmt.Printf("simple-model runs:    %d (%.1f%%)\n", res.SimpleRuns, pct(res.SimpleRuns, res.Predictions))
		fmt.Printf("field MAE:            %.2f BPM\n", res.MAE)
		fmt.Printf("watch energy:         compute %v, radio %v, idle %v, sensors %v (total %v)\n",
			res.Watch.Compute, res.Watch.Radio, res.Watch.Idle, res.Watch.Sensors, res.Watch.Total())
		fmt.Printf("phone energy:         %v\n", res.PhoneEnergy)
		fmt.Printf("battery drain:        %v (SoC %.1f%%)\n", res.BatteryDrain, res.FinalSoC*100)
		if injector != nil {
			fmt.Printf("fault scenario:       %s (seed %d)\n", res.FaultScenario, res.FaultSeed)
			fmt.Printf("  retries %d, timeouts %d, supervision drops %d, deadline misses %d\n",
				res.Retries, res.Timeouts, res.SupervisionDrops, res.DeadlineMisses)
			fmt.Printf("  fallback windows:   %d (%.1f%%)\n",
				res.FallbackWindows, pct(res.FallbackWindows, res.Predictions))
			fmt.Printf("  retransmits:        %d packets, %v radio overhead\n",
				res.RetransmitPackets, res.RetransmitEnergy)
			fmt.Printf("  brown-out drain:    %v\n", res.BrownOutEnergy)
			fmt.Printf("  MAE under faults:   %.2f BPM over %d windows\n", res.FaultMAE, res.FaultWindows)
		}
		if policy := run.Belief; policy != nil {
			fmt.Printf("belief filter:        %d bins, 90%% CI width %.1f BPM, coverage %.1f%%\n",
				res.BeliefBins, res.BeliefWidthMean, res.BeliefCoverage*100)
			if policy.GateBPM > 0 {
				fmt.Printf("  gated offloads:     %d (%.1f%%) at gate %g BPM\n",
					res.GatedOffloads, pct(res.GatedOffloads, res.Predictions), policy.GateBPM)
			}
		}
		if res.BatteryExhausted {
			fmt.Printf("battery exhausted after %.1f h\n", res.SimulatedSeconds/3600)
		} else if res.SimulatedSeconds > 0 {
			avg := power.Power(float64(res.BatteryDrain) / res.SimulatedSeconds)
			fmt.Printf("projected battery life: %.0f h at %v average\n",
				power.NewLiIon370().LifetimeHours(avg), avg)
		}
	})
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
