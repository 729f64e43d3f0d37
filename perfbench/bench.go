package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload. The runner calls prime, then setup setupReps
// times (the last set-up is the one used), then prepare, then op until
// the run's seconds are spent and at least minOps ops ran, then finish.
type workload interface {
	// prime does untimed one-time work before the first set-up, such as
	// filling a cache.
	prime() error
	// setup builds the workload's state from scratch; spans under tr.
	setup(tr *tracer) error
	// prepare runs untimed work between set-up and the first timed op:
	// warm-up, and in a traced run the shadowed set-up split.
	prepare(tr *tracer) error
	// minOps is the length of the op prefix the deterministic metrics
	// cover; the runner always completes it.
	minOps() int
	// op runs timed op i and returns the windows it completed. A non-nil
	// tr records inline spans under parent.
	op(i int, tr *tracer, parent int) (int, error)
	// after runs untimed after op i: output checks, and with a non-nil tr
	// the shadow calls under the op's span parent.
	after(i int, tr *tracer, parent int) error
	// finish runs the final output checks and returns the deterministic
	// metrics over the first minOps ops.
	finish() (quality, error)
	// layers returns the per-layer metrics the tracer holds.
	layers(tr *tracer) map[string]float64
	// close releases files the workload wrote.
	close()
}

// quality holds the deterministic end-to-end metrics: for a given seed
// they repeat exactly.
type quality struct {
	successRate float64
	maeBPM      float64
	watchUJ     float64
	offloadFrac float64
}

// workloadOrder lists the workloads; the first one a per-layer metric's
// layers.json entry names is where a traced run of another workload
// measures it.
var workloadOrder = []string{"serve", "serve-chaos", "fleet", "artifacts"}

// probeOnly names the workloads BENCHMARK.json does not list; they still
// run on request, and a traced run probes them for their per-layer
// metrics. One artifacts op takes about 20 s, so a run times a single op
// and its time metrics follow the host's drift: two sets of ten runs
// spread 19-28 % of the median, beyond the widest allowed bound.
var probeOnly = map[string]bool{"artifacts": true}

func workloadNames() string { return strings.Join(workloadOrder, "|") }

func newWorkload(name string, o options) (workload, error) {
	switch name {
	case "serve":
		return newServe(o, false), nil
	case "serve-chaos":
		return newServe(o, true), nil
	case "fleet":
		return newFleet(o), nil
	case "artifacts":
		return newArtifacts(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

// A measured run sets up at least setupReps times and for at least
// setupSeconds; setup_s is the median.
const (
	setupReps    = 5
	setupSeconds = 2.0
)

// measured is what one pass over a workload produced.
type measured struct {
	setup     []float64 // seconds per set-up
	opMs      []float64 // untraced ops
	tracedMs  []float64 // traced ops
	windows   int
	cpu       time.Duration
	alloc     uint64
	heapMiB   float64
	attempted int
	failed    int
	q         quality
	layers    map[string]float64
	account   map[string]float64
}

// measure runs one workload. In a traced pass every second op is traced
// (interleaved, so traced and untraced ops see the same host state), or
// every op when allTraced is set; seconds == 0 runs only the minOps
// prefix.
func measure(o options, name string, seconds float64, reps int, traced, allTraced bool) (*measured, error) {
	w, err := newWorkload(name, o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	if err := w.prime(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	m := &measured{}
	for r := 0; r < reps || (reps > 1 && sum(m.setup) < setupSeconds); r++ {
		t0 := time.Now()
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
	}
	if err := w.prepare(tr); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	minOps := w.minOps()
	if traced && !allTraced && minOps < 2 {
		minOps = 2
	}
	deadline := time.Duration(seconds * float64(time.Second))
	var errs []error
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < deadline; i++ {
		var otr *tracer
		if traced && (allTraced || i%2 == 1) {
			otr = tr
		}
		id := otr.begin("op", -1, i)
		alloc0, cpu0 := totalAlloc(), cpuTime()
		t0 := time.Now()
		n, err := w.op(i, otr, id)
		d := time.Since(t0)
		cpu, alloc := cpuTime()-cpu0, totalAlloc()-alloc0
		otr.end(id, n)
		m.attempted++
		if err == nil {
			err = w.after(i, otr, id)
		}
		if err != nil {
			m.failed++
			if len(errs) < 5 {
				errs = append(errs, fmt.Errorf("%s op %d: %w", name, i, err))
			}
			continue
		}
		ms := float64(d) / 1e6
		if otr != nil {
			m.tracedMs = append(m.tracedMs, ms)
		} else {
			m.opMs = append(m.opMs, ms)
			m.windows += n
			m.cpu += cpu
			m.alloc += alloc
		}
	}
	q, err := w.finish()
	if err != nil {
		errs = append(errs, fmt.Errorf("%s: %w", name, err))
	}
	m.q = q
	m.heapMiB = liveHeapMiB()
	if tr != nil {
		m.layers = w.layers(tr)
		m.account = tr.accounting()
		path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", name, o.seed))
		if err := tr.dump(path, map[string]any{"workload": name, "seed": o.seed, "host": host()}); err != nil {
			errs = append(errs, err)
		}
	}
	return m, errors.Join(errs...)
}

// run executes one benchmark invocation and returns the result line and
// the info line printed before it.
func run(o options) (result, map[string]any, error) {
	info := map[string]any{"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace, "host": host()}
	if o.workload == "artifacts" {
		info["note"] = "artifacts has no seed-dependent input: the paper suite is fixed"
	}
	if !o.trace {
		reps := setupReps
		if o.short {
			reps = 1
		}
		m, err := measure(o, o.workload, o.seconds, reps, false, false)
		if m == nil {
			return result{}, info, err
		}
		res, extra := endToEnd(m)
		for k, v := range extra {
			info[k] = v
		}
		res.Correct = err == nil && m.failed == 0
		if err != nil {
			info["errors"] = err.Error()
		}
		return res, info, nil
	}
	return traceRun(o, info)
}

// endToEnd turns an untraced pass into the end-to-end metrics.
func endToEnd(m *measured) (result, map[string]any) {
	ops := float64(len(m.opMs))
	res := result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(m.setup))
	extra := map[string]any{"ops": len(m.opMs), "setup_runs_s": m.setup}
	if len(m.opMs) > 0 {
		p50 := median(m.opMs)
		t, pct := tail(m.opMs)
		put("op_p50_ms", "ms", p50)
		put("op_tail_ms", "ms", t)
		put("windows_per_s", "1/s", float64(m.windows)/(sum(m.opMs)/1e3))
		put("cpu_ms_per_op", "ms", float64(m.cpu)/1e6/ops)
		put("alloc_mb_per_op", "MiB", float64(m.alloc)/(1<<20)/ops)
		extra["op_tail"] = map[string]any{"percentile": pct, "n": len(m.opMs)}
	}
	put("heap_live_mb", "MiB", m.heapMiB)
	put("success_rate", "ratio", m.q.successRate)
	put("mae_bpm", "BPM", m.q.maeBPM)
	put("watch_uj_per_window", "uJ", m.q.watchUJ)
	put("offload_frac", "ratio", m.q.offloadFrac)
	return res, extra
}

// traceRun measures the named workload traced (every second op), then
// probes each other workload for its fixed op prefix with every op
// traced, and reports every per-layer metric of layers.json: from the
// named workload where it produces the metric, otherwise from the first
// workload layers.json lists for it.
func traceRun(o options, info map[string]any) (result, map[string]any, error) {
	specs, err := loadLayers()
	if err != nil {
		return result{}, info, err
	}
	var errs []error
	passes := map[string]*measured{}
	attempted, failed := 0, 0
	for _, name := range append([]string{o.workload}, workloadOrder...) {
		if _, done := passes[name]; done {
			continue
		}
		primary := name == o.workload
		secs, reps := 0.0, 1
		if primary && !o.short {
			secs, reps = o.seconds, setupReps
		}
		m, err := measure(o, name, secs, reps, true, !primary)
		if err != nil {
			errs = append(errs, err)
		}
		if m == nil {
			return result{}, info, errors.Join(errs...)
		}
		passes[name] = m
		attempted += m.attempted
		failed += m.failed
	}
	// The op_p50 difference between traced and untraced ops of the named
	// workload is the tracing overhead.
	primary := passes[o.workload]
	if len(primary.opMs) > 0 && len(primary.tracedMs) > 0 {
		overhead := median(primary.tracedMs) - median(primary.opMs)
		primary.layers["trace.overhead_ms"] = overhead
		info["trace_overhead_ms"] = overhead
	}
	accounting := map[string]any{}
	for name, m := range passes {
		accounting[name] = m.account
	}
	info["accounting"] = accounting

	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	var missing []string
	for _, sp := range specs {
		v, ok := primary.layers[sp.Name]
		for _, wl := range sp.Workloads {
			if ok {
				break
			}
			if p := passes[wl]; p != nil {
				v, ok = p.layers[sp.Name]
			}
		}
		if !ok {
			missing = append(missing, sp.Name)
			continue
		}
		res.Metrics[sp.Name] = metric{Value: v, Unit: sp.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		errs = append(errs, fmt.Errorf("per-layer metrics not measured: %s", strings.Join(missing, ", ")))
	}
	err = errors.Join(errs...)
	res.Correct = err == nil && failed == 0
	if err != nil {
		info["errors"] = err.Error()
	}
	return res, info, nil
}
