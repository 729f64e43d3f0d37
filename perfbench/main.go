// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed number of seconds from one process, checks the
// workload's outputs, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
//
// run.py builds this package (a module of its own that points back at the
// repository through a replace directive) into .bench_build and runs it.
// Workloads, metrics and their units are listed in BENCHMARK.json; which
// end-to-end metric each per-layer metric should move is in layers.json.
//
// Everything the benchmark writes stays under .bench_build: the Go build
// cache, the primed weight/record cache of the paper suite, checkpoint
// files and the span dump of a traced run.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// stateDir is where the benchmark keeps everything it writes, relative to
// the directory it runs from (the repository root).
const stateDir = ".bench_build"

//go:embed layers.json
var layersJSON []byte

// layerSpec is one entry of layers.json: a per-layer metric, its unit,
// and the end-to-end metric and workload it is expected to move.
type layerSpec struct {
	Name      string   `json:"name"`
	Unit      string   `json:"unit"`
	Moves     string   `json:"moves"`
	Workloads []string `json:"workloads"`
}

func loadLayers() ([]layerSpec, error) {
	var ls []layerSpec
	if err := json.Unmarshal(layersJSON, &ls); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return ls, nil
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// cacheDir holds the paper suite's trained weights and records.
	cacheDir string
	// outDir receives checkpoints and the span dump.
	outDir string
	// short shrinks every fixed op count to a smoke-test size.
	short bool
	// log receives progress and diagnostics.
	log io.Writer
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "input seed (non-negative)")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds of timed ops")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = *trace == 1
	o.cacheDir = filepath.Join(stateDir, "suite-cache")
	o.outDir = filepath.Join(stateDir, "perfbench")
	o.log = os.Stderr
	if *trace != 0 && *trace != 1 {
		fatalf("--trace %d: want 0 or 1", *trace)
	}
	if o.seed < 0 {
		fatalf("--seed %d is negative", o.seed)
	}
	if o.seconds <= 0 {
		fatalf("--seconds %g must be positive", o.seconds)
	}
	res, info, err := run(o)
	if err != nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		fatalf("%v", err)
	}
	if err := enc.Encode(res); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
