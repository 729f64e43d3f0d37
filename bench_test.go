package chris

// One benchmark per paper artifact (Tables I-III, Figures 3-5, the §IV-B
// BLE-down claim, the §III-B RF-accuracy claim) plus the repository's
// ablations and micro-benchmarks of the hot paths.
//
// The experiment suite is built once per `go test -bench` invocation from
// the cached weights/records under testdata/cache (the first ever run
// trains the TimePPG networks and takes several minutes; later runs take
// seconds). Each artifact benchmark then measures the cost of
// regenerating its table/figure from the suite state and reports the
// headline numbers as custom metrics, so `go test -bench=. -benchmem`
// doubles as the reproduction log.

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/models/tcn"
)

var (
	suiteOnce sync.Once
	suite     *bench.Suite
	suiteErr  error
)

func fullSuite(b *testing.B) *bench.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = bench.NewSuite(bench.DefaultSuiteConfig())
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

func reportMetrics(b *testing.B, m map[string]float64, keys ...string) {
	for _, k := range keys {
		if v, ok := m[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// BenchmarkTableI regenerates Table I (zoo characterization).
func BenchmarkTableI(b *testing.B) {
	s := fullSuite(b)
	var a bench.Artifact
	for i := 0; i < b.N; i++ {
		a = bench.TableI(s)
	}
	reportMetrics(b, a.Metrics, "mae_AT", "mae_TimePPG-Small", "mae_TimePPG-Big", "ble_mJ")
}

// BenchmarkTableII regenerates Table II (stored configurations).
func BenchmarkTableII(b *testing.B) {
	s := fullSuite(b)
	var a bench.Artifact
	for i := 0; i < b.N; i++ {
		a = bench.TableII(s)
	}
	reportMetrics(b, a.Metrics, "configurations")
}

// BenchmarkTableIII regenerates Table III (platform deployment).
func BenchmarkTableIII(b *testing.B) {
	s := fullSuite(b)
	var a bench.Artifact
	for i := 0; i < b.N; i++ {
		a = bench.TableIII(s)
	}
	reportMetrics(b, a.Metrics, "cycles_AT", "cycles_TimePPG-Small", "cycles_TimePPG-Big")
}

// BenchmarkFig3 regenerates Fig. 3 (baseline bars).
func BenchmarkFig3(b *testing.B) {
	s := fullSuite(b)
	var a bench.Artifact
	for i := 0; i < b.N; i++ {
		a = bench.Fig3(s)
	}
	reportMetrics(b, a.Metrics, "mae_AT", "mae_TimePPG-Big")
}

// BenchmarkFig4 regenerates Fig. 4 (configuration space + Pareto +
// constraint selections).
func BenchmarkFig4(b *testing.B) {
	s := fullSuite(b)
	var a bench.Artifact
	for i := 0; i < b.N; i++ {
		a, _ = bench.Fig4(s)
	}
	reportMetrics(b, a.Metrics,
		"configs", "pareto", "sel1_reduction_vs_small_local", "sel1_mae",
		"sel2_reduction_vs_small_local", "sel2_reduction_vs_stream_all", "sel2_energy_uJ")
}

// BenchmarkFig5 regenerates Fig. 5 (difficulty-threshold sweep).
func BenchmarkFig5(b *testing.B) {
	s := fullSuite(b)
	var a bench.Artifact
	for i := 0; i < b.N; i++ {
		a = bench.Fig5(s)
	}
	reportMetrics(b, a.Metrics, "mae_t0", "mae_t9", "energy_mJ_t0", "energy_mJ_t9")
}

// BenchmarkBLEDownPareto regenerates the §IV-B link-down claim.
func BenchmarkBLEDownPareto(b *testing.B) {
	s := fullSuite(b)
	var a bench.Artifact
	for i := 0; i < b.N; i++ {
		a = bench.BLEDownPareto(s)
	}
	reportMetrics(b, a.Metrics, "local_pareto_points", "mae_span")
}

// BenchmarkRFAccuracy regenerates the difficulty-detector accuracy claim.
func BenchmarkRFAccuracy(b *testing.B) {
	s := fullSuite(b)
	var a bench.Artifact
	for i := 0; i < b.N; i++ {
		a = bench.RFAccuracy(s)
	}
	reportMetrics(b, a.Metrics, "acc_9way", "acc_worst_binary", "acc_t5")
}

// BenchmarkAblationDispatch regenerates ablation A1 (detector quality).
func BenchmarkAblationDispatch(b *testing.B) {
	s := fullSuite(b)
	var a bench.Artifact
	for i := 0; i < b.N; i++ {
		a = bench.AblationDispatch(s)
	}
	reportMetrics(b, a.Metrics, "mae_rf", "mae_oracle", "mae_random")
}

// BenchmarkAblationIdlePower regenerates ablation A2.
func BenchmarkAblationIdlePower(b *testing.B) {
	s := fullSuite(b)
	for i := 0; i < b.N; i++ {
		_ = bench.AblationIdlePower(s)
	}
}

// BenchmarkAblationQuant regenerates ablation A3 (int8 vs float32).
func BenchmarkAblationQuant(b *testing.B) {
	s := fullSuite(b)
	var a bench.Artifact
	for i := 0; i < b.N; i++ {
		a = bench.AblationQuantization(s)
	}
	reportMetrics(b, a.Metrics, "int8_mae_TimePPG-Small", "float_mae_TimePPG-Small")
}

// ---- micro-benchmarks of the hot paths ----

// BenchmarkATInference measures the Adaptive Threshold estimator.
func BenchmarkATInference(b *testing.B) {
	s := fullSuite(b)
	w := &s.TestWindows[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.AT.EstimateHR(w)
	}
}

// BenchmarkSmallInference measures TimePPG-Small (as deployed: int8).
func BenchmarkSmallInference(b *testing.B) {
	s := fullSuite(b)
	w := &s.TestWindows[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Small.EstimateHR(w)
	}
}

// BenchmarkBigInference measures TimePPG-Big (as deployed: int8).
func BenchmarkBigInference(b *testing.B) {
	s := fullSuite(b)
	w := &s.TestWindows[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Big.EstimateHR(w)
	}
}

// BenchmarkRFClassify measures the difficulty detector.
func BenchmarkRFClassify(b *testing.B) {
	s := fullSuite(b)
	w := &s.TestWindows[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Classifier.Classify(w)
	}
}

// BenchmarkEngineDispatch measures the per-window runtime decision.
func BenchmarkEngineDispatch(b *testing.B) {
	s := fullSuite(b)
	engine, err := core.NewEngine(s.Profiles, s.Classifier)
	if err != nil {
		b.Fatal(err)
	}
	cfg := s.Profiles[len(s.Profiles)/2]
	w := &s.TestWindows[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = engine.Dispatch(&cfg, w)
	}
}

// BenchmarkSelectConfig measures the constraint lookup (one linear pass).
func BenchmarkSelectConfig(b *testing.B) {
	s := fullSuite(b)
	engine, err := core.NewEngine(s.Profiles, s.Classifier)
	if err != nil {
		b.Fatal(err)
	}
	bound := s.Profiles[len(s.Profiles)-1].MAE
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.SelectConfig(true, core.MAEConstraint(bound)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFT256 measures the 256-point FFT that dominates spectral
// preprocessing.
func BenchmarkFFT256(b *testing.B) {
	x := make([]float64, 256)
	for i := range x {
		x[i] = float64(i % 17)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dsp.PowerSpectrum(x)
	}
}

// BenchmarkTCNTrainingStep measures one forward+backward of TimePPG-Small
// on a batch of one window.
func BenchmarkTCNTrainingStep(b *testing.B) {
	net := tcn.NewTimePPGSmall()
	net.InitWeights(1)
	x := tcn.NewBatchTensor(1, tcn.InputChannels, tcn.InputSamples)
	for i := range x.Data {
		x.Data[i] = float32(i%13) / 13
	}
	var p, g [1]float32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(x, p[:])
		_, g[0] = tcn.HuberLoss(p[0], 0.5)
		net.BackwardBatch(g[:])
	}
}
