// Command chrissim runs whole-system scenarios on the CHRIS smartwatch
// simulator: battery-life projections under a chosen constraint, BLE
// dropout traces with configuration re-selection, and fault-injected
// runs over a lossy link with retry/timeout/backoff and graceful
// degradation.
//
// Usage:
//
//	chrissim [-quick] [-hours 24] [-mae 6.0] [-dropout 0]
//	         [-faults commute|gym|worstcase|none] [-seed 1] [-json]
//	         [-sensors] [-belief] [-gate 0] [-v]
//
// -dropout N cuts the link every N simulated seconds (down for N/4).
// -faults picks a chaos scenario (see internal/faults); -seed makes the
// injected packet loss replayable — the same seed reproduces the run
// byte for byte, which CI uses as a deterministic-replay gate via -json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/belief"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw/ble"
	"repro/internal/hw/power"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chrissim: ")

	quick := flag.Bool("quick", true, "use the scaled-down pipeline (fast)")
	hours := flag.Float64("hours", 24, "simulated horizon in hours")
	maeBound := flag.Float64("mae", 0, "MAE constraint in BPM (0 = use energy bound)")
	energyBound := flag.Float64("energy", 0.3, "energy constraint in mJ when -mae is 0")
	dropout := flag.Float64("dropout", 0, "link dropout period in seconds (0 = always up)")
	faultsName := flag.String("faults", "", "fault scenario: "+strings.Join(faults.Names(), "|")+" (empty = fault-free)")
	seed := flag.Int64("seed", 1, "fault-injection seed (replayable, non-negative)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of text")
	sensors := flag.Bool("sensors", true, "charge the PPG/IMU front end")
	useBelief := flag.Bool("belief", false, "run the temporal belief filter (posterior-mean smoothing)")
	gateBPM := flag.Float64("gate", 0, "uncertainty-gate threshold in BPM (0 = gating off; implies -belief)")
	verbose := flag.Bool("v", false, "progress logging")
	flag.Parse()

	// Validate cheap inputs before the expensive suite build: a typo'd
	// scenario name must fail in milliseconds, not after minutes of
	// dataset generation and training.
	var injector *faults.Injector
	if *seed < 0 {
		log.Fatalf("-seed %d is negative; seeds are non-negative", *seed)
	}
	if *gateBPM < 0 {
		log.Fatalf("-gate %g is negative", *gateBPM)
	}
	if *hours <= 0 {
		log.Fatalf("-hours %g must be positive", *hours)
	}
	if *dropout < 0 {
		log.Fatalf("-dropout %g is negative", *dropout)
	}
	if *faultsName != "" {
		sc, ok := faults.ByName(*faultsName)
		if !ok {
			log.Fatalf("unknown fault scenario %q (have %s)", *faultsName, strings.Join(faults.Names(), "|"))
		}
		var err error
		injector, err = faults.NewInjector(sc, uint64(*seed))
		if err != nil {
			log.Fatal(err)
		}
	}

	cfg := bench.DefaultSuiteConfig()
	if *quick {
		cfg = bench.QuickSuiteConfig()
	}
	if *verbose {
		cfg.Progress = func(format string, args ...interface{}) { log.Printf(format, args...) }
	}
	suite, err := bench.NewSuite(cfg)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := core.NewEngine(suite.Profiles, suite.Classifier)
	if err != nil {
		log.Fatal(err)
	}

	constraint := core.EnergyConstraint(power.MilliJoules(*energyBound))
	if *maeBound > 0 {
		constraint = core.MAEConstraint(*maeBound)
	}

	var trace *ble.ConnectivityTrace
	if *dropout > 0 {
		var toggles []float64
		horizon := *hours * 3600
		for t := *dropout; t < horizon; t += *dropout {
			toggles = append(toggles, t, t+*dropout/4)
		}
		trace, err = ble.NewConnectivityTrace(true, toggles...)
		if err != nil {
			log.Fatal(err)
		}
	}

	var policy *belief.Policy
	if *useBelief || *gateBPM > 0 {
		if policy, err = suite.BeliefPolicy(); err != nil {
			log.Fatal(err)
		}
		policy.GateBPM = *gateBPM
	}

	bat := power.NewLiIon370()
	res, err := sim.Run(sim.Config{
		System:          suite.Sys,
		Engine:          engine,
		Constraint:      constraint,
		Trace:           trace,
		Windows:         suite.TestWindows,
		DurationSeconds: *hours * 3600,
		Battery:         bat,
		IncludeSensors:  *sensors,
		Faults:          injector,
		Belief:          policy,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("scenario: %.1f h, constraint %v, dropout %v s\n", *hours, constraint, *dropout)
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
	if policy != nil {
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
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
