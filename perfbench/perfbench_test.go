package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func shortOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     3,
		seconds:  0.01,
		trace:    trace,
		cacheDir: filepath.Join("..", stateDir, "suite-cache"),
		outDir:   t.TempDir(),
		short:    true,
		log:      io.Discard,
	}
}

// checkMetrics fails unless res is correct and reports exactly the named
// metrics, each with its unit.
func checkMetrics(t *testing.T, res result, info map[string]any, names, units []string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, info["errors"])
	}
	if len(res.Metrics) != len(names) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(names))
	}
	for k, name := range names {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if m.Unit != units[k] {
			t.Errorf("metric %s has unit %q, want %q", name, m.Unit, units[k])
		}
	}
}

func TestLayersMatchBenchmark(t *testing.T) {
	spec := loadSpec(t)
	layers, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != len(spec.PerLayer) {
		t.Fatalf("layers.json has %d metrics, BENCHMARK.json %d", len(layers), len(spec.PerLayer))
	}
	known := map[string]bool{}
	for _, w := range spec.Workloads {
		known[w.Name] = true
	}
	for k, l := range layers {
		if l.Name != spec.PerLayer[k].Name || l.Unit != spec.PerLayer[k].Unit {
			t.Errorf("layers.json entry %d is %s [%s], BENCHMARK.json has %s [%s]",
				k, l.Name, l.Unit, spec.PerLayer[k].Name, spec.PerLayer[k].Unit)
		}
		if l.Moves == "" || len(l.Workloads) == 0 {
			t.Errorf("%s: no target metric or workload", l.Name)
		}
		for _, w := range l.Workloads {
			if !known[w] && !probeOnly[w] {
				t.Errorf("%s names unknown workload %q", l.Name, w)
			}
		}
	}
	for _, w := range workloadOrder {
		if known[w] == probeOnly[w] {
			t.Errorf("workload %s: listed in BENCHMARK.json %v, probe only %v", w, known[w], probeOnly[w])
		}
	}
}

// TestWorkloadsShort runs every workload for a few ops and checks that
// the end-to-end metrics print with their units and the output checks
// pass; a traced run must report every per-layer metric.
func TestWorkloadsShort(t *testing.T) {
	spec := loadSpec(t)
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, info, err := run(shortOptions(t, w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, info, names, units)
		})
	}
	t.Run("trace", func(t *testing.T) {
		var names, units []string
		for _, m := range spec.PerLayer {
			names, units = append(names, m.Name), append(units, m.Unit)
		}
		res, info, err := run(shortOptions(t, "fleet", true))
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, res, info, names, units)
	})
}
