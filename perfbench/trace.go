package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Inline spans
// wrap the calls of a timed op; shadow spans re-run a layer's public
// function on the op's own inputs after the op, so the op is not slowed.
// A shadow span is attributed to its parent through Parent, not through
// its interval: its parent's self time is the parent's duration minus the
// durations of all its children.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the root
	Op     int    `json:"op"`     // -1 during set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
	// N counts the work units (windows, users) the span covered.
	N int `json:"n,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans and per-op samples in memory until the run ends.
type tracer struct {
	t0      time.Time
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id; a nil tracer returns -1 and
// records nothing, so untraced ops call the same code.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

// end closes span id, recording n work units.
func (t *tracer) end(id, n int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
	t.spans[id].N = n
}

// shadow runs fn as a shadow span under parent and returns its id.
func (t *tracer) shadow(name string, parent, op, n int, fn func()) int {
	id := t.begin(name, parent, op)
	t.spans[id].Shadow = true
	fn()
	t.end(id, n)
	return id
}

// sample records one per-op observation of a counter or ratio.
func (t *tracer) sample(name string, v float64) {
	if t != nil {
		t.samples[name] = append(t.samples[name], v)
	}
}

// named returns the spans called name.
func (t *tracer) named(name string) []*span {
	var out []*span
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, &t.spans[i])
		}
	}
	return out
}

// medianMs is the median duration of the spans called name.
func (t *tracer) medianMs(name string) (float64, bool) {
	ss := t.named(name)
	if len(ss) == 0 {
		return 0, false
	}
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = s.ms()
	}
	return median(v), true
}

// perUnitMs is the summed duration of the spans called name divided by
// the work units they covered.
func (t *tracer) perUnitMs(name string) (float64, bool) {
	var ms float64
	var n int
	for _, s := range t.named(name) {
		ms += s.ms()
		n += s.N
	}
	if n == 0 {
		return 0, false
	}
	return ms / float64(n), true
}

// selfMs is the median self time of the spans called name: duration minus
// the durations of their children.
func (t *tracer) selfMs(name string) (float64, bool) {
	child := map[int]float64{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].ms()
		}
	}
	ss := t.named(name)
	if len(ss) == 0 {
		return 0, false
	}
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = s.ms() - child[s.ID]
	}
	return median(v), true
}

// mean is the mean of the samples called name.
func (t *tracer) mean(name string) (float64, bool) {
	v := t.samples[name]
	if len(v) == 0 {
		return 0, false
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v)), true
}

// ratio is Σ samples num over Σ (num + other): a success share.
func (t *tracer) ratio(num, other string) (float64, bool) {
	a, b := sum(t.samples[num]), sum(t.samples[other])
	if a+b == 0 {
		return 0, false
	}
	return a / (a + b), true
}

// accounting splits every traced op into the time its leaf spans (the
// layers: inline calls without children and shadow calls) account for
// and the residual: the self time of the spans that have children, the
// part of the op no layer explains. The two add up to the op by
// construction; a negative residual means the shadow calls took longer
// than the call they re-run. It returns medians over the traced ops.
func (t *tracer) accounting() map[string]float64 {
	child := map[int]float64{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].ms()
		}
	}
	// inOp reports whether span s descends from span root.
	inOp := func(s *span, root int) bool {
		for s.Parent >= 0 {
			if s.Parent == root {
				return true
			}
			s = &t.spans[s.Parent]
		}
		return false
	}
	var ops, layers, resid []float64
	for _, op := range t.named("op") {
		d := op.ms()
		if d <= 0 {
			continue
		}
		l, r := 0.0, d-child[op.ID]
		for i := range t.spans {
			s := &t.spans[i]
			if s.Op != op.Op || !inOp(s, op.ID) {
				continue
			}
			if _, parent := child[s.ID]; parent {
				r += s.ms() - child[s.ID]
			} else {
				l += s.ms()
			}
		}
		ops = append(ops, d)
		layers = append(layers, l/d)
		resid = append(resid, r/d)
	}
	if len(ops) == 0 {
		return nil
	}
	return map[string]float64{
		"traced_ops":    float64(len(ops)),
		"op_ms_p50":     median(ops),
		"layers_frac":   median(layers),
		"residual_frac": median(resid),
	}
}

// dump writes the spans and samples as JSON.
func (t *tracer) dump(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"meta": meta, "spans": t.spans, "samples": t.samples})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
