package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/belief"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw/power"
	"repro/internal/models"
	"repro/internal/models/tcn"
	"repro/internal/reccache"
	"repro/internal/serve"
)

const (
	// serveSessions is the number of concurrent user streams.
	serveSessions = 64
	// serveEnergyMJ is the per-session energy bound; on the paper suite
	// it selects [AT,TimePPG-Big] t=4 Hybrid on a clean link.
	serveEnergyMJ = 0.3
	// chaosGateBPM is the uncertainty-gate width of serve-chaos, the
	// calibrated gate of the belief layer.
	chaosGateBPM = 13
	// serveBatch is the coalescer's batch size (the engine default,
	// stated so batch widths can be computed from results).
	serveBatch = 32
	// chaosCycles is the number of lockstep cycles in a serve-chaos op.
	chaosCycles = 8
	// chaosWarmupCap bounds the untimed warm-up of serve-chaos, in ops.
	chaosWarmupCap = 512
)

// serveWL is the serve and serve-chaos workloads: one lockstep engine
// with one worker, driven as a closed loop. An op is one cycle (eight
// under chaos); a cycle submits one seeded test window per session, runs
// Tick, drains every session, and under chaos checkpoints the engine.
type serveWL struct {
	o     options
	chaos bool

	suite *bench.Suite
	cfg   serve.Config
	e     *serve.Engine
	vc    *serve.VirtualClock
	sess  []*serve.Session
	ckpt  string
	// snapBytes is the size of the last checkpoint.
	snapBytes int
	rng       *rand.Rand
	perm      []int // rest of the current pass over the test split

	// cyc holds the current op's cycles.
	cyc []cycle

	// Deterministic accounting over the first minOps timed ops.
	first    int // warm-up cycles: the sequence number of the first timed one
	usable   int
	attempts int
	absErr   float64
	watchUJ  float64
	// Session counter totals when the prefix starts and ends.
	start, end serve.SessionStats

	// Shadow state of a traced run.
	filters []*belief.Filter
	rmsBuf  []float64
	prev    serve.SessionStats
}

// cycle is one lockstep cycle of an op: the window each session
// submitted, the result it drained, and in a traced op the Tick's span.
type cycle struct {
	win  []*dalia.Window
	res  []serve.WindowResult
	tick int
}

func newServe(o options, chaos bool) *serveWL {
	return &serveWL{o: o, chaos: chaos}
}

// minOps is the deterministic prefix: 4096 windows on serve, 32768 on
// serve-chaos.
func (w *serveWL) minOps() int {
	if w.o.short {
		return 2
	}
	return 64
}

// cycles is the number of lockstep cycles in one op. A serve-chaos cycle
// is short (about 3 ms) and a garbage collection lands in about every
// twenty-fifth, which alone set the p99 of one-cycle ops; eight cycles
// per op give ops of serve's order of magnitude.
func (w *serveWL) cycles() int {
	if w.chaos {
		return chaosCycles
	}
	return 1
}

func (w *serveWL) prime() error { return primeSuite(w.o) }

func (w *serveWL) setup(tr *tracer) error {
	w.close()
	s, err := newSuite(w.o, tr)
	if err != nil {
		return err
	}
	id := tr.begin("core.new_engine", -1, -1)
	eng, err := core.NewEngine(s.Profiles, s.Classifier)
	tr.end(id, 0)
	if err != nil {
		return err
	}
	id = tr.begin("serve.open", -1, -1)
	defer tr.end(id, serveSessions)
	w.suite = s
	w.vc = serve.NewVirtualClock()
	w.cfg = serve.Config{
		Engine:     eng,
		System:     s.Sys,
		Constraint: core.EnergyConstraint(power.MilliJoules(serveEnergyMJ)),
		Clock:      w.vc,
		FaultSeed:  uint64(w.o.seed),
		BatchSize:  serveBatch,
		Workers:    1,
	}
	if w.chaos {
		sc := faults.WorstCase()
		w.cfg.Faults = &sc
		pol, err := s.BeliefPolicy()
		if err != nil {
			return err
		}
		pol.GateBPM = chaosGateBPM
		w.cfg.Belief = pol
		if err := os.MkdirAll(w.o.outDir, 0o755); err != nil {
			return err
		}
		f, err := os.CreateTemp(w.o.outDir, "engine-*.chss")
		if err != nil {
			return err
		}
		f.Close()
		w.ckpt = f.Name()
	}
	if w.e, err = serve.Open(w.cfg); err != nil {
		return err
	}
	w.sess = make([]*serve.Session, serveSessions)
	for i := range w.sess {
		if w.sess[i], err = w.e.NewSession(fmt.Sprintf("u%03d", i)); err != nil {
			return err
		}
	}
	w.rng = rand.New(rand.NewSource(w.o.seed))
	w.perm = nil
	w.cyc = make([]cycle, w.cycles())
	for c := range w.cyc {
		w.cyc[c].win = make([]*dalia.Window, serveSessions)
	}
	return nil
}

// prepare warms serve-chaos up until hysteresis has moved every session
// off its first (hybrid) configuration, so timed ops see the steady
// faulted state; in a traced run it also shadows the set-up split.
func (w *serveWL) prepare(tr *tracer) error {
	if w.chaos {
		n := 0
		for ; n < chaosWarmupCap && !w.allReselected(); n++ {
			if _, err := w.op(-1, nil, -1); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		w.first = n * len(w.cyc)
		fmt.Fprintf(w.o.log, "perfbench: serve-chaos: %d warm-up cycles\n", w.first)
	}
	w.start = w.totals()
	w.prev = w.start
	if tr != nil {
		w.filters = make([]*belief.Filter, serveSessions)
		if w.chaos {
			for i := range w.filters {
				f, err := belief.NewFilter(w.cfg.Belief.Table)
				if err != nil {
					return err
				}
				w.filters[i] = f
			}
		}
		return shadowSetup(w.suite, tr)
	}
	return nil
}

func (w *serveWL) allReselected() bool {
	for _, s := range w.sess {
		if s.Stats().Reselections == 0 {
			return false
		}
	}
	return true
}

// totals sums the session counters.
func (w *serveWL) totals() serve.SessionStats {
	var t serve.SessionStats
	for _, s := range w.sess {
		st := s.Stats()
		t.FullRuns += st.FullRuns
		t.SimpleRuns += st.SimpleRuns
		t.FallbackWindows += st.FallbackWindows
		t.ShedWindows += st.ShedWindows
		t.Expired += st.Expired
		t.Late += st.Late
		t.Panics += st.Panics
		t.Offloaded += st.Offloaded
		t.Retries += st.Retries
		t.SupervisionDrops += st.SupervisionDrops
		t.GatedWindows += st.GatedWindows
		t.Reselections += st.Reselections
		t.DeadlineMisses += st.DeadlineMisses
		t.RetransmitEnergy += st.RetransmitEnergy
	}
	return t
}

// next returns the next window of the seeded stream: the test split in
// a fresh random order per pass, so every window is served equally
// often and the seed changes only which session gets it when.
func (w *serveWL) next() *dalia.Window {
	if len(w.perm) == 0 {
		w.perm = w.rng.Perm(len(w.suite.TestWindows))
	}
	k := w.perm[0]
	w.perm = w.perm[1:]
	return &w.suite.TestWindows[k]
}

func (w *serveWL) op(i int, tr *tracer, parent int) (int, error) {
	for c := range w.cyc {
		if err := w.runCycle(&w.cyc[c], i, tr, parent); err != nil {
			return 0, err
		}
	}
	return len(w.cyc) * serveSessions, nil
}

// runCycle is one lockstep cycle: submit a window per session, Tick,
// drain one result per session and, under chaos, checkpoint.
func (w *serveWL) runCycle(cy *cycle, i int, tr *tracer, parent int) error {
	now := w.vc.Now()
	id := tr.begin("serve.submit", parent, i)
	for s, sess := range w.sess {
		cy.win[s] = w.next()
		if st := sess.Submit(cy.win[s], now); st != serve.SubmitOK {
			tr.end(id, s)
			return fmt.Errorf("session %s: submit %s", sess.ID(), st)
		}
	}
	tr.end(id, serveSessions)

	cy.tick = tr.begin("serve.tick", parent, i)
	w.e.Tick()
	tr.end(cy.tick, serveSessions)

	id = tr.begin("serve.drain", parent, i)
	cy.res = cy.res[:0]
	for _, sess := range w.sess {
		rs := sess.Drain()
		if len(rs) != 1 {
			tr.end(id, 0)
			return fmt.Errorf("session %s: %d results for 1 window", sess.ID(), len(rs))
		}
		cy.res = append(cy.res, rs[0])
	}
	tr.end(id, serveSessions)

	if w.chaos {
		id = tr.begin("serve.checkpoint", parent, i)
		err := w.checkpoint()
		tr.end(id, 0)
		if err != nil {
			return err
		}
	}
	w.vc.Advance(w.cfg.System.PeriodSeconds)
	return nil
}

// checkpoint persists the engine snapshot the way Engine.Checkpoint
// does on a memory-backed directory: the bytes go to a partial file that
// is renamed over the checkpoint. Engine.Checkpoint also fsyncs, a no-op
// on tmpfs; the benchmark may write only inside its checkout, where an
// fsync would time the host's disk (its latency spikes set the op tail).
func (w *serveWL) checkpoint() error {
	data := w.e.Snapshot()
	w.snapBytes = len(data)
	tmp := reccache.PartialPath(w.ckpt)
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, w.ckpt)
}

// after checks op i's results, folds the deterministic prefix into the
// quality metrics and, when traced, shadows the layers each tick ran.
func (w *serveWL) after(i int, tr *tracer, _ int) error {
	for c := range w.cyc {
		cy := &w.cyc[c]
		seq := uint64(w.first + i*len(w.cyc) + c)
		for s, r := range cy.res {
			if r.Seq != seq {
				return fmt.Errorf("session %d: result seq %d, want %d", s, r.Seq, seq)
			}
		}
		if i < w.minOps() {
			w.account(cy)
		}
		var err error
		switch {
		case tr != nil:
			err = w.shadow(cy, i, tr)
		case !w.chaos && i < w.minOps():
			// Untraced runs still check the engine's estimates, on the
			// deterministic prefix only so the check's cost is fixed.
			_, err = w.infer(cy, i, nil)
		}
		if err != nil {
			return err
		}
	}
	t := w.totals()
	if i == w.minOps()-1 {
		w.end = t
	}
	if tr != nil {
		w.sampleCounters(tr, w.prev, t)
	}
	w.prev = t
	return nil
}

// account adds a cycle's results to the quality metrics.
func (w *serveWL) account(cy *cycle) {
	sys := w.cfg.System
	for s, r := range cy.res {
		w.attempts++
		if r.Outcome.Discarded() {
			continue
		}
		w.usable++
		w.absErr += math.Abs(r.HR - cy.win[s].TrueHR)
		if r.Offloaded {
			w.watchUJ += sys.WatchOffloadActiveEnergy().MicroJoules()
		} else if m, ok := w.suite.Zoo.ByName(r.Model); ok {
			w.watchUJ += sys.WatchLocalEnergy(m).MicroJoules()
		}
	}
}

// infer re-runs the estimators on a cycle's windows, grouped by the model
// the results name, as shadow spans under the cycle's tick when traced,
// and returns the raw estimates. Without belief smoothing they must equal
// the engine's HR bitwise.
func (w *serveWL) infer(cy *cycle, i int, tr *tracer) ([]float64, error) {
	groups := map[string][]int{}
	var names []string
	for s, r := range cy.res {
		if r.Outcome.Discarded() {
			continue
		}
		if _, ok := groups[r.Model]; !ok {
			names = append(names, r.Model)
		}
		groups[r.Model] = append(groups[r.Model], s)
	}
	raw := make([]float64, len(cy.res))
	for _, name := range names {
		m, ok := w.suite.Zoo.ByName(name)
		if !ok {
			return nil, fmt.Errorf("result names model %q outside the zoo", name)
		}
		idx := groups[name]
		ws := make([]dalia.Window, len(idx))
		for k, s := range idx {
			ws[k] = *cy.win[s]
		}
		out := make([]float64, len(idx))
		run := func() {
			if b, ok := m.(models.BatchHREstimator); ok && len(ws) > 1 {
				b.EstimateHRBatch(ws, out)
				return
			}
			for k := range ws {
				out[k] = m.EstimateHR(&ws[k])
			}
		}
		if tr == nil {
			run()
		} else {
			tr.shadow(layerSpan(name), cy.tick, i, len(ws), run)
		}
		for k, s := range idx {
			raw[s] = out[k]
			if !w.chaos && math.Float64bits(out[k]) != math.Float64bits(cy.res[s].HR) {
				return nil, fmt.Errorf("session %d: shadow %s HR %v, engine HR %v", s, name, out[k], cy.res[s].HR)
			}
		}
	}
	return raw, nil
}

// layerSpan names the shadow span of a zoo model's batch inference.
func layerSpan(model string) string {
	switch model {
	case tcn.BigName:
		return "tcn.big_batch"
	case tcn.SmallName:
		return "tcn.small_batch"
	}
	return "at"
}

// shadow re-runs, after a traced op, the layers a cycle's Tick called:
// inference, the difficulty detector and, under chaos, the belief step.
func (w *serveWL) shadow(cy *cycle, i int, tr *tracer) error {
	raw, err := w.infer(cy, i, tr)
	if err != nil {
		return err
	}

	// Difficulty detector: every dispatched window, checked against the
	// engine's verdict.
	var dispatched []int
	for s, r := range cy.res {
		if r.Difficulty != 0 {
			dispatched = append(dispatched, s)
		}
	}
	ids := make([]int, len(dispatched))
	tr.shadow("rf.classify", cy.tick, i, len(dispatched), func() {
		for k, s := range dispatched {
			ids[k] = w.suite.Classifier.DifficultyID(cy.win[s])
		}
	})
	for k, s := range dispatched {
		if ids[k] != cy.res[s].Difficulty {
			return fmt.Errorf("session %d: shadow difficulty %d, engine %d", s, ids[k], cy.res[s].Difficulty)
		}
	}

	// Belief step: the gate's predictive width, then fusion of the raw
	// estimate with its motion-scaled sigma, per session filter.
	if w.chaos {
		pol := w.cfg.Belief
		tr.shadow("belief.step", cy.tick, i, len(cy.res), func() {
			for s, r := range cy.res {
				f := w.filters[s]
				_ = f.PredictiveWidth(pol.Mass)
				if r.Outcome.Discarded() {
					f.Coast()
					continue
				}
				var rms float64
				rms, w.rmsBuf = belief.MotionRMS(cy.win[s], w.rmsBuf)
				f.ObserveGaussian(raw[s], pol.Sigma(r.Model, rms))
				_ = f.Width(pol.Mass)
			}
		})
		tr.sample("snapshot.bytes", float64(w.snapBytes))
	}

	// The coalescer's batch width: inferred windows per model chunk.
	perModel := map[string]int{}
	inferred := 0
	for _, r := range cy.res {
		if !r.Outcome.Discarded() {
			perModel[r.Model]++
			inferred++
		}
	}
	chunks := 0
	for _, n := range perModel {
		chunks += (n + serveBatch - 1) / serveBatch
	}
	if chunks > 0 {
		tr.sample("serve.batch_width", float64(inferred)/float64(chunks))
	}
	return nil
}

// sampleCounters records the op's session-counter deltas per cycle.
func (w *serveWL) sampleCounters(tr *tracer, p, t serve.SessionStats) {
	k := float64(len(w.cyc))
	per := func(name string, now, before uint64) { tr.sample(name, float64(now-before)/k) }
	per("serve.full", t.FullRuns, p.FullRuns)
	per("serve.simple", t.SimpleRuns, p.SimpleRuns)
	per("serve.fallback", t.FallbackWindows, p.FallbackWindows)
	per("serve.shed", t.ShedWindows, p.ShedWindows)
	per("serve.discarded", t.Expired+t.Late+t.Panics, p.Expired+p.Late+p.Panics)
	per("serve.retries", t.Retries, p.Retries)
	per("serve.supervision_drops", t.SupervisionDrops, p.SupervisionDrops)
	per("serve.gated", t.GatedWindows, p.GatedWindows)
	per("serve.reselections", t.Reselections, p.Reselections)
	per("serve.offloaded", t.Offloaded, p.Offloaded)
}

func (w *serveWL) finish() (quality, error) {
	var q quality
	if w.attempts == 0 {
		return q, errors.New("no ops accounted")
	}
	q.successRate = float64(w.usable) / float64(w.attempts)
	if w.usable > 0 {
		q.maeBPM = w.absErr / float64(w.usable)
		q.watchUJ = (w.watchUJ + (w.end.RetransmitEnergy - w.start.RetransmitEnergy).MicroJoules()) / float64(w.attempts)
		// Offload attempts, successful or not: on the clean link every
		// attempt succeeds; under worstcase none does (its latency spike
		// outlasts the attempt timeout), and serve.offload_success is the
		// per-layer view of that.
		sent := w.end.Offloaded + w.end.DeadlineMisses - w.start.Offloaded - w.start.DeadlineMisses
		q.offloadFrac = float64(sent) / float64(w.usable)
	}
	if w.chaos {
		// The last checkpoint restores into a fresh engine and
		// re-snapshots byte-identically.
		want, err := os.ReadFile(w.ckpt)
		if err != nil {
			return q, err
		}
		cfg := w.cfg
		cfg.Clock = serve.NewVirtualClock()
		e2, err := serve.Open(cfg)
		if err != nil {
			return q, err
		}
		defer e2.Close()
		if err := e2.Restore(want); err != nil {
			return q, fmt.Errorf("restoring the last checkpoint: %w", err)
		}
		if !bytes.Equal(e2.Snapshot(), want) {
			return q, errors.New("restored engine re-snapshots differently from its checkpoint")
		}
	}
	return q, nil
}

func (w *serveWL) layers(tr *tracer) map[string]float64 {
	out := map[string]float64{}
	put := func(name string, v float64, ok bool) {
		if ok {
			out[name] = v
		}
	}
	ms, ok := tr.medianMs("serve.submit")
	put("serve.submit_us", ms*1e3, ok)
	put2 := func(name, span string) {
		v, ok := tr.medianMs(span)
		put(name, v, ok)
	}
	put2("serve.tick_ms", "serve.tick")
	ms, ok = tr.medianMs("serve.drain")
	put("serve.drain_us", ms*1e3, ok)
	put2("serve.checkpoint_ms", "serve.checkpoint")
	v, ok := tr.selfMs("serve.tick")
	put("serve.residual_ms", v, ok)
	for _, c := range []string{"batch_width", "full", "simple", "fallback", "shed", "discarded",
		"retries", "supervision_drops", "gated", "reselections"} {
		v, ok := tr.mean("serve." + c)
		put("serve."+c, v, ok)
	}
	v, ok = tr.ratio("serve.offloaded", "serve.fallback")
	put("serve.offload_success", v, ok)
	v, ok = tr.mean("snapshot.bytes")
	put("snapshot.bytes", v, ok)
	for span, name := range map[string]string{
		"tcn.big_batch":   "tcn.big_batch_us_per_window",
		"tcn.small_batch": "tcn.small_batch_us_per_window",
		"at":              "at.us_per_window",
		"rf.classify":     "rf.classify_us_per_window",
		"belief.step":     "belief.step_us_per_window",
	} {
		v, ok := tr.perUnitMs(span)
		put(name, v*1e3, ok)
	}
	setupLayers(tr, out)
	return out
}

func (w *serveWL) close() {
	if w.e != nil {
		w.e.Close()
		w.e = nil
	}
	if w.ckpt != "" {
		os.Remove(w.ckpt)
		os.Remove(reccache.PartialPath(w.ckpt))
		w.ckpt = ""
	}
}
