// Belief: learn an HR-transition prior from the training split, round-trip
// it through the binary codec, and run the same 2-hour scenario twice —
// point-estimate baseline versus the temporal belief filter with
// uncertainty-gated offload — to show the MAE-vs-offload-rate trade.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	chris "repro"
)

func main() {
	log.SetFlags(0)

	pipe, err := chris.BuildPipeline(chris.QuickPipelineConfig())
	if err != nil {
		log.Fatal(err)
	}
	engine, err := chris.NewEngine(pipe.Profiles, pipe.Classifier)
	if err != nil {
		log.Fatal(err)
	}

	// The transition prior is learned from the same training subjects that
	// train the networks and the difficulty forest — the test split stays
	// held out.
	table, err := pipe.BeliefTable()
	if err != nil {
		log.Fatal(err)
	}
	g := table.Grid
	fmt.Printf("transition prior: %d bins of %g BPM covering %g..%g BPM\n",
		g.Bins, g.BinW, g.MinHR, g.MaxHR())

	// Round-trip the prior through its snapshot frame, as a deployment
	// shipping the learned table to a watch would.
	dir, err := os.MkdirTemp("", "belief")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "prior.chss")
	if err := chris.SaveBeliefTable(table, path, 0); err != nil {
		log.Fatal(err)
	}
	loaded, err := chris.LoadBeliefTable(path, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i := range table.P {
		if loaded.P[i] != table.P[i] {
			log.Fatalf("codec round-trip changed cell %d", i)
		}
	}
	fi, _ := os.Stat(path)
	fmt.Printf("codec round-trip:  %d bytes on disk, bitwise identical\n\n", fi.Size())

	// Same scenario, two arms: the belief arm smooths each HR estimate
	// with the posterior mean and keeps confident windows local.
	base := chris.ScenarioConfig{
		System:          pipe.Sys,
		Engine:          engine,
		Constraint:      chris.EnergyConstraint(chris.MilliJoules(0.3)),
		Windows:         pipe.TestWindows,
		DurationSeconds: 2 * 3600,
		IncludeSensors:  true,
	}
	baseRes, err := chris.Simulate(base)
	if err != nil {
		log.Fatal(err)
	}

	pol, err := pipe.BeliefPolicy()
	if err != nil {
		log.Fatal(err)
	}
	pol.GateBPM = 70 // keep windows local while the 90% predictive CI is tighter than this
	withBelief := base
	withBelief.Belief = pol
	belRes, err := chris.Simulate(withBelief)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %12s %12s\n", "", "baseline", "belief")
	fmt.Printf("%-22s %12.2f %12.2f\n", "field MAE (BPM)", baseRes.MAE, belRes.MAE)
	fmt.Printf("%-22s %11.1f%% %11.1f%%\n", "offloaded windows",
		pct(baseRes.Offloaded, baseRes.Predictions), pct(belRes.Offloaded, belRes.Predictions))
	fmt.Printf("%-22s %12s %12d\n", "gated offloads", "-", belRes.GatedOffloads)
	fmt.Printf("%-22s %12s %11.1f%%\n", "90% CI coverage", "-", belRes.BeliefCoverage*100)
	fmt.Printf("%-22s %12s %12.1f\n", "mean CI width (BPM)", "-", belRes.BeliefWidthMean)
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
