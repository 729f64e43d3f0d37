package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/eval"
)

// RecordScaling measures BuildRecords over the suite's test windows at one
// worker and at the machine's full core count.
type RecordScaling struct {
	Windows          int     `json:"windows"`
	Workers          int     `json:"workers"`
	SerialNsPerWin   float64 `json:"serial_ns_per_window"`
	ParallelNsPerWin float64 `json:"parallel_ns_per_window"`
}

// BenchReport is the BENCH_*.json payload: the perf trajectory datapoint
// every performance PR commits, holding kernel timings (optimized and
// seed-reference), record-building scaling, and the headline paper
// metrics so accuracy regressions show up next to speedups.
type BenchReport struct {
	GeneratedAt  string             `json:"generated_at"`
	GoVersion    string             `json:"go_version"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	SuiteConfig  string             `json:"suite_config"`
	Kernels      []KernelResult     `json:"kernels"`
	BuildRecords RecordScaling      `json:"build_records"`
	Belief       BeliefMetrics      `json:"belief"`
	Headline     map[string]float64 `json:"headline"`
}

// BuildBenchReport assembles the report from an already-built suite. A
// measurement failure is an error, not a zeroed field: BENCH_*.json files
// are the committed perf trajectory, and a silent 0 ns/op would read as an
// impossible speedup baseline in later PRs.
func BuildBenchReport(s *Suite) (BenchReport, error) {
	rep := BenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		SuiteConfig: s.Cfg.key(),
		Kernels:     KernelBenchmarks(),
		Headline:    map[string]float64{},
	}

	scaling, err := measureRecordScaling(s)
	if err != nil {
		return BenchReport{}, err
	}
	rep.BuildRecords = scaling

	if rep.Belief, err = MeasureBelief(s); err != nil {
		return BenchReport{}, err
	}

	for _, a := range []Artifact{TableI(s), Fig5(s)} {
		for k, v := range a.Metrics {
			rep.Headline[k] = v
		}
	}
	f4, _ := Fig4(s)
	for _, k := range []string{"configs", "pareto", "sel1_mae", "sel1_reduction_vs_small_local",
		"sel2_mae", "sel2_reduction_vs_small_local", "sel2_reduction_vs_stream_all"} {
		if v, ok := f4.Metrics[k]; ok {
			rep.Headline[k] = v
		}
	}
	return rep, nil
}

func measureRecordScaling(s *Suite) (RecordScaling, error) {
	ws := s.TestWindows
	sc := RecordScaling{Windows: len(ws), Workers: runtime.NumCPU()}
	if len(ws) == 0 {
		return sc, fmt.Errorf("bench: no test windows to measure record building over")
	}
	run := func(procs int) (float64, error) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		start := time.Now()
		if _, err := eval.BuildRecords(ws, s.Zoo.Models(), s.Classifier); err != nil {
			return 0, fmt.Errorf("bench: record-scaling measurement at %d procs: %w", procs, err)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(ws)), nil
	}
	var err error
	if sc.SerialNsPerWin, err = run(1); err != nil {
		return sc, err
	}
	if sc.ParallelNsPerWin, err = run(runtime.NumCPU()); err != nil {
		return sc, err
	}
	return sc, nil
}

// WriteBenchReport writes the report as indented JSON.
func WriteBenchReport(path string, rep BenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
