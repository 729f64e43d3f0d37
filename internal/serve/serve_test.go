package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/hw"
	"repro/internal/hw/power"
	"repro/internal/models"
	"repro/internal/models/rf"
)

// biasEst is the cheap deterministic fixture estimator: a fixed bias on
// the true HR, with batch and worker-clone support so the coalescer's
// wide path is exercised. The batch path delegates to the serial path,
// making the two bitwise identical by construction (the invariant real
// zoo models guarantee through the GEMM tests).
type biasEst struct {
	name string
	ops  int64
	bias float64
}

func (e *biasEst) Name() string                       { return e.name }
func (e *biasEst) Ops() int64                         { return e.ops }
func (e *biasEst) Params() int64                      { return 0 }
func (e *biasEst) EstimateHR(w *dalia.Window) float64 { return models.ClampHR(w.TrueHR + e.bias) }
func (e *biasEst) CloneEstimator() models.HREstimator { return e }
func (e *biasEst) EstimateHRBatch(ws []dalia.Window, out []float64) {
	for i := range ws {
		out[i] = e.EstimateHR(&ws[i])
	}
}

// poisonStart marks a window as a panic trigger for trapEst (tests stamp
// it on copies they own).
const poisonStart = -999

// trapEst panics on poisoned windows, in both serial and batched paths —
// the supervision tests use it to simulate a model bug tripping on one
// user's data.
type trapEst struct {
	biasEst
}

func (e *trapEst) EstimateHR(w *dalia.Window) float64 {
	if w.Start == poisonStart {
		panic("trapEst: poisoned window")
	}
	return e.biasEst.EstimateHR(w)
}

func (e *trapEst) CloneEstimator() models.HREstimator { return e }

func (e *trapEst) EstimateHRBatch(ws []dalia.Window, out []float64) {
	for i := range ws {
		out[i] = e.EstimateHR(&ws[i])
	}
}

var fixtureOnce struct {
	sync.Once
	sys     *hw.System
	eng     *core.Engine
	windows []dalia.Window
}

// fixture builds (once) the shared test world: synthetic DaLiA-like
// windows, a trained difficulty forest, and a two-model zoo profiled
// into engine configurations. Tests must treat all three as read-only.
func fixture(t testing.TB) (*hw.System, *core.Engine, []dalia.Window) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureOnce.sys, fixtureOnce.eng, fixtureOnce.windows = buildFixture(12_000_000)
	})
	return fixtureOnce.sys, fixtureOnce.eng, fixtureOnce.windows
}

// buildFixture builds the test world with a complex model of complexOps
// operations (its cost on the watch MCU and the phone).
func buildFixture(complexOps int64) (*hw.System, *core.Engine, []dalia.Window) {
	c := dalia.DefaultConfig()
	c.Subjects = 2
	c.DurationScale = 0.03
	var ws []dalia.Window
	for s := 0; s < c.Subjects; s++ {
		rec, err := dalia.GenerateSubject(c, s)
		if err != nil {
			panic("serve fixture: dataset: " + err.Error())
		}
		ws = append(ws, dalia.Windows(rec, c.WindowSamples, c.StrideSamples)...)
	}
	cls, err := rf.Train(ws, rf.DefaultConfig())
	if err != nil {
		panic("serve fixture: forest: " + err.Error())
	}
	simple := &trapEst{biasEst{name: "cheap", ops: 3_000, bias: 8}}
	complex := &trapEst{biasEst{name: "best", ops: complexOps, bias: 2}}
	sys := hw.NewSystem()
	header := core.NewRecordHeader("cheap", "best")
	recs := make([]core.WindowRecord, len(ws))
	for i := range ws {
		recs[i] = core.WindowRecord{
			TrueHR:     ws[i].TrueHR,
			Activity:   ws[i].Activity,
			Difficulty: cls.DifficultyID(&ws[i]),
			Header:     header,
			Preds:      []float64{ws[i].TrueHR + 8, ws[i].TrueHR + 2},
		}
	}
	zoo, err := core.NewZoo(simple, complex)
	if err != nil {
		panic("serve fixture: zoo: " + err.Error())
	}
	profiles, err := core.ProfileConfigs(zoo.EnumerateConfigs(), recs, sys)
	if err != nil {
		panic("serve fixture: profiling: " + err.Error())
	}
	eng, err := core.NewEngine(profiles, cls)
	if err != nil {
		panic("serve fixture: engine: " + err.Error())
	}
	return sys, eng, ws
}

// lockstepConfig is the deterministic baseline config tests start from.
func lockstepConfig(t testing.TB) (Config, *VirtualClock) {
	t.Helper()
	sys, eng, _ := fixture(t)
	vc := NewVirtualClock()
	return Config{
		Engine:     eng,
		System:     sys,
		Constraint: core.MAEConstraint(6),
		Clock:      vc,
	}, vc
}

func TestOpenValidatesConfig(t *testing.T) {
	sys, eng, _ := fixture(t)
	if _, err := Open(Config{System: sys}); err == nil {
		t.Fatal("Open accepted a nil core engine")
	}
	if _, err := Open(Config{Engine: eng}); err == nil {
		t.Fatal("Open accepted a nil system")
	}
	if _, err := Open(Config{Engine: eng, System: sys, MailboxDepth: 2, HighWater: 5}); err == nil {
		t.Fatal("Open accepted HighWater > MailboxDepth")
	}
	if _, err := Open(Config{Engine: eng, System: sys, BatchSize: -1}); err == nil {
		t.Fatal("Open accepted a negative BatchSize")
	}
	if _, err := Open(Config{Engine: eng, System: sys, DeadlineSeconds: -1}); err == nil {
		t.Fatal("Open accepted a negative deadline")
	}
}

// TestLockstepMatchesDirectPredict: on the clean path (no faults, link
// up) every window's estimate must equal running the decision engine
// directly — the streaming machinery adds robustness, never bias.
func TestLockstepMatchesDirectPredict(t *testing.T) {
	cfg, vc := lockstepConfig(t)
	_, eng, ws := fixture(t)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const nSessions = 3
	sessions := make([]*Session, nSessions)
	for i := range sessions {
		s, err := e.NewSession(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	profile := sessions[0].Stats().ActiveConfig
	want, err := eng.SelectConfig(true, cfg.Constraint)
	if err != nil {
		t.Fatal(err)
	}
	if profile != want.Name() {
		t.Fatalf("initial config %q, want %q", profile, want.Name())
	}

	const perSession = 20
	for k := 0; k < perSession; k++ {
		for i, s := range sessions {
			w := &ws[(k*nSessions+i)%len(ws)]
			if st := s.Submit(w, vc.Now()); st != SubmitOK {
				t.Fatalf("submit %d/%d: %v", i, k, st)
			}
		}
		e.Tick()
		vc.Advance(2)
	}

	for i, s := range sessions {
		res := s.Drain()
		if len(res) != perSession {
			t.Fatalf("session %d: %d results, want %d", i, len(res), perSession)
		}
		for k, r := range res {
			w := &ws[(k*nSessions+i)%len(ws)]
			d := eng.Predict(&want, w)
			if r.HR != d.HR {
				t.Fatalf("session %d window %d: HR %v != direct %v", i, k, r.HR, d.HR)
			}
			if r.Model != d.Model.Name() {
				t.Fatalf("session %d window %d: model %q != %q", i, k, r.Model, d.Model.Name())
			}
			if r.Outcome != OutcomeFull && r.Outcome != OutcomeSimple {
				t.Fatalf("clean path produced outcome %v", r.Outcome)
			}
			if r.Seq != uint64(k) {
				t.Fatalf("session %d: result %d has seq %d", i, k, r.Seq)
			}
		}
		st := s.Stats()
		if st.Finished() != perSession || st.Accepted != perSession || st.Dropped != 0 {
			t.Fatalf("session %d stats off: %+v", i, st)
		}
	}
}

// TestMailboxOverflowDrops: rung 1 — a full mailbox answers drop, never
// blocks.
func TestMailboxOverflowDrops(t *testing.T) {
	cfg, vc := lockstepConfig(t)
	cfg.MailboxDepth = 4
	cfg.HighWater = 4 // shedding off for this test
	_, _, ws := fixture(t)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := e.NewSession("u0")
	if err != nil {
		t.Fatal(err)
	}
	var drops int
	for i := 0; i < 7; i++ {
		if s.Submit(&ws[i%len(ws)], vc.Now()) == SubmitDropped {
			drops++
		}
	}
	if drops != 3 {
		t.Fatalf("dropped %d, want 3", drops)
	}
	st := s.Stats()
	if st.Submitted != 7 || st.Accepted != 4 || st.Dropped != 3 {
		t.Fatalf("stats %+v", st)
	}
	e.Tick()
	if got := s.Stats().Finished(); got != 4 {
		t.Fatalf("finished %d, want 4", got)
	}
}

// TestShedDegradesToSimple: rung 3 — a backlog past high water degrades
// the batch to the simple model instead of queueing latency.
func TestShedDegradesToSimple(t *testing.T) {
	cfg, vc := lockstepConfig(t)
	cfg.MailboxDepth = 16
	cfg.HighWater = 3
	_, eng, ws := fixture(t)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := e.NewSession("u0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if st := s.Submit(&ws[i], vc.Now()); st != SubmitOK {
			t.Fatal(st)
		}
	}
	e.Tick()
	res := s.Drain()
	if len(res) != 5 {
		t.Fatalf("%d results", len(res))
	}
	want, _ := eng.SelectConfig(true, cfg.Constraint)
	for i, r := range res {
		if r.Outcome != OutcomeShed {
			t.Fatalf("window %d outcome %v, want shed", i, r.Outcome)
		}
		if r.Model != want.Simple.Name() {
			t.Fatalf("window %d model %q, want simple %q", i, r.Model, want.Simple.Name())
		}
		if wantHR := want.Simple.EstimateHR(&ws[i]); r.HR != wantHR {
			t.Fatalf("window %d HR %v, want %v", i, r.HR, wantHR)
		}
	}
	if st := s.Stats(); st.ShedWindows != 5 {
		t.Fatalf("stats %+v", st)
	}
}

// TestExpiredWindowsDiscarded: rung 2 — a deadline that passed while the
// window queued discards it without inference.
func TestExpiredWindowsDiscarded(t *testing.T) {
	cfg, vc := lockstepConfig(t)
	cfg.DeadlineSeconds = 1
	_, _, ws := fixture(t)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := e.NewSession("u0")
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Submit(&ws[0], vc.Now()); st != SubmitOK {
		t.Fatal(st)
	}
	vc.Advance(5) // well past the 1 s deadline
	if st := s.Submit(&ws[1], vc.Now()); st != SubmitOK {
		t.Fatal(st)
	}
	e.Tick()
	res := s.Drain()
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	if res[0].Outcome != OutcomeExpired || res[0].HR != 0 || res[0].Model != "" {
		t.Fatalf("stale window: %+v", res[0])
	}
	if res[1].Outcome == OutcomeExpired {
		t.Fatalf("fresh window expired: %+v", res[1])
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPanicIsolation: a poisoned window costs itself and restarts its
// session; batch-mates and other sessions are untouched.
func TestPanicIsolation(t *testing.T) {
	cfg, vc := lockstepConfig(t)
	_, eng, ws := fixture(t)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sa, err := e.NewSession("a")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := e.NewSession("b")
	if err != nil {
		t.Fatal(err)
	}

	poison := ws[0]
	poison.Start = poisonStart
	if st := sa.Submit(&poison, vc.Now()); st != SubmitOK {
		t.Fatal(st)
	}
	if st := sa.Submit(&ws[1], vc.Now()); st != SubmitOK {
		t.Fatal(st)
	}
	if st := sb.Submit(&ws[1], vc.Now()); st != SubmitOK {
		t.Fatal(st)
	}
	e.Tick()

	ra := sa.Drain()
	if len(ra) != 2 {
		t.Fatalf("session a: %d results", len(ra))
	}
	if ra[0].Outcome != OutcomePanic || ra[0].HR != 0 {
		t.Fatalf("poisoned window: %+v", ra[0])
	}
	want, _ := eng.SelectConfig(true, cfg.Constraint)
	if d := eng.Predict(&want, &ws[1]); ra[1].HR != d.HR {
		t.Fatalf("batch-mate HR %v, want %v", ra[1].HR, d.HR)
	}
	sta := sa.Stats()
	if sta.Panics != 1 || sta.Restarts != 1 {
		t.Fatalf("session a stats %+v", sta)
	}
	rb := sb.Drain()
	if len(rb) != 1 || rb[0].Outcome.Discarded() {
		t.Fatalf("session b: %+v", rb)
	}
	if stb := sb.Stats(); stb.Panics != 0 || stb.Restarts != 0 {
		t.Fatalf("session b stats %+v", stb)
	}
}

// TestCloseDrainsAndRejects: Close finishes admitted work, then the
// engine (and its sessions) refuse new submissions. Close is idempotent.
func TestCloseDrainsAndRejects(t *testing.T) {
	cfg, vc := lockstepConfig(t)
	_, _, ws := fixture(t)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession("u0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if st := s.Submit(&ws[i], vc.Now()); st != SubmitOK {
			t.Fatal(st)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after Close", e.Pending())
	}
	if got := len(s.Drain()); got != 3 {
		t.Fatalf("%d results after Close, want 3", got)
	}
	if st := s.Submit(&ws[0], vc.Now()); st != SubmitClosed {
		t.Fatalf("submit after Close: %v", st)
	}
	if _, err := e.NewSession("u1"); err == nil {
		t.Fatal("NewSession after Close succeeded")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestDuplicateSessionRejected(t *testing.T) {
	cfg, _ := lockstepConfig(t)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.NewSession("u0"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewSession("u0"); err == nil {
		t.Fatal("duplicate session id accepted")
	}
	if _, err := e.NewSession(""); err == nil {
		t.Fatal("empty session id accepted")
	}
	if e.Session("u0") == nil || e.Session("nope") != nil {
		t.Fatal("Session lookup wrong")
	}
}

// TestMaxPendingRejects: the engine-wide admission bound rejects before
// the mailbox is consulted.
// fixedRater rates every window at one difficulty.
type fixedRater int

func (r fixedRater) DifficultyID(*dalia.Window) int { return int(r) }

// TestNewSessionRejectsInfeasibleConstraint: without the simple-only
// local configuration, a 0.5 mJ energy bound is met only by hybrid
// configurations, so the first reselection to the link-down side would
// have nothing to select. NewSession rejects the session up front, the
// check fleet's BuildUser makes; a bound both link states meet passes.
func TestNewSessionRejectsInfeasibleConstraint(t *testing.T) {
	cfg, _ := lockstepConfig(t)
	var profiles []core.Profile
	for _, p := range cfg.Engine.Profiles() {
		if p.Exec == core.Local && p.Threshold == core.NumThresholds-1 {
			continue
		}
		profiles = append(profiles, p)
	}
	eng, err := core.NewEngine(profiles, fixedRater(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = eng
	for _, tc := range []struct {
		bound    power.Energy
		feasible bool
	}{
		{power.MicroJoules(500), false},
		{power.MilliJoules(2), true},
	} {
		cfg.Constraint = core.EnergyConstraint(tc.bound)
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.NewSession("u0")
		if tc.feasible && err != nil {
			t.Errorf("bound %v: %v", tc.bound, err)
		}
		if !tc.feasible && err == nil {
			t.Errorf("bound %v: session accepted although no local configuration meets it", tc.bound)
		}
		e.Close()
	}
}

func TestMaxPendingRejects(t *testing.T) {
	cfg, vc := lockstepConfig(t)
	cfg.MaxPending = 2
	_, _, ws := fixture(t)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sa, _ := e.NewSession("a")
	sb, _ := e.NewSession("b")
	if st := sa.Submit(&ws[0], vc.Now()); st != SubmitOK {
		t.Fatal(st)
	}
	if st := sb.Submit(&ws[1], vc.Now()); st != SubmitOK {
		t.Fatal(st)
	}
	if st := sb.Submit(&ws[2], vc.Now()); st != SubmitRejected {
		t.Fatalf("over MaxPending: %v", st)
	}
	e.Tick()
	if st := sb.Submit(&ws[2], vc.Now()); st != SubmitOK {
		t.Fatalf("after drain: %v", st)
	}
}

func TestOutcomeAndStatusStrings(t *testing.T) {
	for o := OutcomeFull; o <= OutcomePanic; o++ {
		if o.String() == "unknown" {
			t.Fatalf("outcome %d has no name", o)
		}
	}
	if Outcome(200).String() != "unknown" {
		t.Fatal("out-of-range outcome named")
	}
	for st := SubmitOK; st <= SubmitClosed; st++ {
		if st.String() == "unknown" {
			t.Fatalf("status %d has no name", st)
		}
	}
}
