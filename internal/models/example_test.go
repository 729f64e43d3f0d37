package models_test

import (
	"fmt"

	"repro/internal/dalia"
	"repro/internal/models"
	"repro/internal/models/tcn"
)

// ExampleBatchHREstimator demonstrates the contract the record builder
// relies on: an estimator's batched path must reproduce its serial path
// bitwise, window for window, so evaluation may switch freely between
// the two.
func ExampleBatchHREstimator() {
	cfg := dalia.DefaultConfig()
	cfg.Subjects = 1
	cfg.DurationScale = 0.02
	rec, err := dalia.GenerateSubject(cfg, 0)
	if err != nil {
		panic(err)
	}
	ws := dalia.Windows(rec, cfg.WindowSamples, cfg.StrideSamples)[:4]

	net := tcn.NewTimePPGSmall()
	net.InitWeights(1)
	var est models.BatchHREstimator = tcn.NewEstimator(net)

	batch := make([]float64, len(ws))
	est.EstimateHRBatch(ws, batch)

	identical := true
	for i := range ws {
		if est.EstimateHR(&ws[i]) != batch[i] {
			identical = false
		}
	}
	fmt.Printf("%d windows, batch bitwise equals serial: %v\n", len(ws), identical)
	// Output: 4 windows, batch bitwise equals serial: true
}
