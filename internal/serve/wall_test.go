package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/models"
	"repro/internal/models/rf"
)

// wedgeStart marks a window that makes blockEst hang until the test
// releases it — the simulated wedged model the watchdog must catch.
const wedgeStart = -1234

// blockEst behaves like biasEst except on wedge-marked windows, where it
// blocks until unblock is closed — in both serial and batched paths, since
// the engine hands even a lone window to the batch path.
type blockEst struct {
	biasEst
	unblock chan struct{}
}

func (e *blockEst) EstimateHR(w *dalia.Window) float64 {
	if w.Start == wedgeStart {
		<-e.unblock
	}
	return e.biasEst.EstimateHR(w)
}

func (e *blockEst) EstimateHRBatch(ws []dalia.Window, out []float64) {
	for i := range ws {
		out[i] = e.EstimateHR(&ws[i])
	}
}

func (e *blockEst) CloneEstimator() models.HREstimator { return e }

// buildEngine profiles a fresh two-model zoo over the fixture windows.
// Profiling preds are synthetic constants, so even a blocking estimator
// can be profiled.
func buildEngine(t *testing.T, simple, complex models.HREstimator) *core.Engine {
	t.Helper()
	_, _, ws := fixture(t)
	cls, err := rf.Train(ws, rf.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	header := core.NewRecordHeader(simple.Name(), complex.Name())
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
		t.Fatal(err)
	}
	sys, _, _ := fixture(t)
	profiles, err := core.ProfileConfigs(zoo.EnumerateConfigs(), recs, sys)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(profiles, cls)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// waitDrained polls until the engine has no pending windows.
func waitDrained(t *testing.T, e *Engine, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for e.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("engine did not drain: %d pending", e.Pending())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWallModeServes: the free-running pump drains submissions without
// explicit ticks and Close completes cleanly.
func TestWallModeServes(t *testing.T) {
	sys, eng, ws := fixture(t)
	e, err := Open(Config{
		Engine:          eng,
		System:          sys,
		Constraint:      core.MAEConstraint(6),
		FlushSeconds:    0.001,
		DeadlineSeconds: 60, // generous: this test is about liveness, not lateness
	})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := e.NewSession("a")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := e.NewSession("b")
	if err != nil {
		t.Fatal(err)
	}
	const per = 10
	for i := 0; i < per; i++ {
		if st := sa.SubmitNow(&ws[i%len(ws)]); st != SubmitOK {
			t.Fatal(st)
		}
		if st := sb.SubmitNow(&ws[(i+3)%len(ws)]); st != SubmitOK {
			t.Fatal(st)
		}
		time.Sleep(500 * time.Microsecond)
	}
	waitDrained(t, e, 5*time.Second)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Session{sa, sb} {
		res := s.Drain()
		if len(res) != per {
			t.Fatalf("session %s: %d results", s.ID(), len(res))
		}
		for _, r := range res {
			if r.Outcome.Discarded() {
				t.Fatalf("session %s: discarded outcome %v", s.ID(), r.Outcome)
			}
			if r.Latency < 0 {
				t.Fatalf("negative latency %v", r.Latency)
			}
		}
	}
}

// TestWatchdogFailsWedgedEngine: a model that hangs mid-inference must
// surface as a loud engine failure — OnStall fires, Err reports
// ErrStalled, Submit rejects, and Close returns without waiting for the
// wedged cycle.
func TestWatchdogFailsWedgedEngine(t *testing.T) {
	unblock := make(chan struct{})
	defer close(unblock) // let the wedged goroutine exit at test end
	simple := &blockEst{biasEst: biasEst{name: "cheap", ops: 3_000, bias: 8}, unblock: unblock}
	complex := &blockEst{biasEst: biasEst{name: "best", ops: 12_000_000, bias: 2}, unblock: unblock}
	eng := buildEngine(t, simple, complex)
	sys, _, ws := fixture(t)

	stalled := make(chan error, 1)
	e, err := Open(Config{
		Engine:          eng,
		System:          sys,
		Constraint:      core.MAEConstraint(6),
		FlushSeconds:    0.001,
		WatchdogSeconds: 0.2,
		OnStall:         func(err error) { stalled <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession("victim")
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]
	w.Start = wedgeStart
	if st := s.SubmitNow(&w); st != SubmitOK {
		t.Fatal(st)
	}

	select {
	case err := <-stalled:
		if !errors.Is(err, ErrStalled) {
			t.Fatalf("stall error %v, want ErrStalled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired on a wedged cycle")
	}
	if st := s.SubmitNow(&ws[1]); st != SubmitClosed {
		t.Fatalf("submit on failed engine: %v", st)
	}
	done := make(chan error, 1)
	go func() { done <- e.Close() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStalled) {
			t.Fatalf("Close error %v, want ErrStalled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a wedged engine")
	}
}

// TestWallConcurrentSubmitters: many goroutines hammering their own
// sessions while the pump drains — the accounting must balance and
// nothing may deadlock. (Run under -race in CI.)
func TestWallConcurrentSubmitters(t *testing.T) {
	sys, eng, ws := fixture(t)
	e, err := Open(Config{
		Engine:          eng,
		System:          sys,
		Constraint:      core.MAEConstraint(6),
		FlushSeconds:    0.001,
		MailboxDepth:    8,
		DeadlineSeconds: 60,
		MaxPending:      64,
	})
	if err != nil {
		t.Fatal(err)
	}
	const nSessions = 8
	const per = 50
	sessions := make([]*Session, nSessions)
	for i := range sessions {
		s, err := e.NewSession(fmt.Sprintf("g%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				s.SubmitNow(&ws[(i*per+k)%len(ws)])
			}
		}(i, s)
	}
	wg.Wait()
	waitDrained(t, e, 10*time.Second)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		st := s.Stats()
		if st.Submitted != per {
			t.Fatalf("%s: submitted %d", s.ID(), st.Submitted)
		}
		if st.Accepted != st.Finished() {
			t.Fatalf("%s: accepted %d, finished %d", s.ID(), st.Accepted, st.Finished())
		}
		if st.Accepted+st.Dropped+st.Rejected != st.Submitted {
			t.Fatalf("%s: admission accounting off: %+v", s.ID(), st)
		}
		if got := uint64(len(s.Drain())); got != st.Accepted {
			t.Fatalf("%s: %d results, %d accepted", s.ID(), got, st.Accepted)
		}
	}
}

// TestConcurrentClose: racing Close calls all return the same verdict.
func TestConcurrentClose(t *testing.T) {
	sys, eng, _ := fixture(t)
	e, err := Open(Config{Engine: eng, System: sys, Constraint: core.MAEConstraint(6)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
}
