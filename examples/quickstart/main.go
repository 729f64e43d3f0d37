// Quickstart: build a CHRIS pipeline, ask the decision engine for a
// configuration under an error bound, track heart rate over a stream of
// windows — printing which model ran where for each — and evaluate the
// selected models over the whole test split through the batched inference
// API (the fast path the profiler itself uses).
package main

import (
	"fmt"
	"log"
	"time"

	chris "repro"
)

func main() {
	log.SetFlags(0)

	// Build the scaled-down pipeline: synthetic cohort, trained models,
	// difficulty detector, profiled configurations. (chrisbench without
	// -quick builds the full-size pipeline, training the networks for
	// minutes on first use.)
	pipe, err := chris.BuildPipeline(chris.QuickPipelineConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The decision engine holds the energy-sorted configuration store.
	engine, err := chris.NewEngine(pipe.Profiles, pipe.Classifier)
	if err != nil {
		log.Fatal(err)
	}

	// Stage 1 (constraint-dependent): ask for the cheapest configuration
	// within 120% of the best profiled error, link up. (A deployment
	// would use an absolute bound, e.g. 6 BPM, as in the paper.)
	best := pipe.Profiles[0].MAE
	for _, p := range pipe.Profiles {
		if p.MAE < best {
			best = p.MAE
		}
	}
	cfg, err := engine.SelectConfig(true, chris.MAEConstraint(best*1.2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected configuration: %s\n", cfg.Name())
	fmt.Printf("  expected MAE %.2f BPM, watch energy %.1f µJ/prediction, offload %.0f%%\n\n",
		cfg.MAE, cfg.WatchEnergy.MicroJoules(), cfg.OffloadFraction*100)

	// Stage 2 (input-dependent): dispatch each incoming window.
	fmt.Println("window  activity      difficulty  model          where  HR est  HR true")
	for i := 0; i < len(pipe.TestWindows); i += len(pipe.TestWindows) / 12 {
		w := &pipe.TestWindows[i]
		d := engine.Predict(&cfg, w)
		where := "watch"
		if d.Offloaded {
			where = "phone"
		}
		fmt.Printf("%6d  %-12s  %10d  %-13s  %-5s  %6.1f  %7.1f\n",
			i, w.Activity, d.Difficulty, d.Model.Name(), where, d.HR, w.TrueHR)
	}

	// Full-split evaluation through the batch API: models implementing
	// chris.BatchHREstimator run every window in one GEMM-backed pass
	// (bitwise identical to window-at-a-time EstimateHR, just faster).
	fmt.Printf("\nbatched evaluation over %d test windows\n", len(pipe.TestWindows))
	preds := make([]float64, len(pipe.TestWindows))
	for _, m := range []chris.HREstimator{cfg.Simple, cfg.Complex} {
		start := time.Now()
		path := "serial"
		if bm, ok := m.(chris.BatchHREstimator); ok {
			bm.EstimateHRBatch(pipe.TestWindows, preds)
			path = "batch"
		} else {
			for i := range pipe.TestWindows {
				preds[i] = m.EstimateHR(&pipe.TestWindows[i])
			}
		}
		elapsed := time.Since(start)
		var mae float64
		for i := range preds {
			d := preds[i] - pipe.TestWindows[i].TrueHR
			if d < 0 {
				d = -d
			}
			mae += d
		}
		mae /= float64(len(preds))
		fmt.Printf("  %-13s %6s path  MAE %5.2f BPM  %8.1f µs/window\n",
			m.Name(), path, mae, float64(elapsed.Microseconds())/float64(len(preds)))
	}
}
