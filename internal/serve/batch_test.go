package serve

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/models"
	"repro/internal/models/tcn"
)

// TestCrossSessionBatchMatchesSerialTCN: the coalescer mixes windows
// from many sessions into one wide GEMM batch on a real TimePPG network.
// Every estimate must be bitwise identical to the same window run alone,
// as a batch of one, on a fresh clone: batch composition across users is
// invisible in the numbers. (The tcn tests pin the batch kernels against
// independent per-window loops.)
func TestCrossSessionBatchMatchesSerialTCN(t *testing.T) {
	sys, _, ws := fixture(t)
	net := tcn.NewTimePPGSmall()
	net.InitWeights(1)
	complex := tcn.NewEstimator(net)
	simple := &biasEst{name: "cheap", ops: 3_000, bias: 8}
	eng := buildEngine(t, simple, complex)

	vc := NewVirtualClock()
	e, err := Open(Config{
		Engine:     eng,
		System:     sys,
		Constraint: core.MAEConstraint(6),
		Clock:      vc,
		BatchSize:  16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const nSessions = 8
	const per = 8
	sessions := make([]*Session, nSessions)
	for i := range sessions {
		s, err := e.NewSession(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	for k := 0; k < per; k++ {
		for i, s := range sessions {
			if st := s.Submit(&ws[(i*per+k)%len(ws)], vc.Now()); st != SubmitOK {
				t.Fatal(st)
			}
		}
		e.Tick()
		vc.Advance(sys.PeriodSeconds)
	}

	ref := complex.Clone() // untouched weights, fresh scratch
	var tcnWindows int
	for i, s := range sessions {
		res := s.Drain()
		if len(res) != per {
			t.Fatalf("session %d: %d results", i, len(res))
		}
		for k, r := range res {
			w := &ws[(i*per+k)%len(ws)]
			switch r.Model {
			case complex.Name():
				tcnWindows++
				if want := ref.EstimateHR(w); r.HR != want {
					t.Fatalf("session %d window %d: batched TCN HR %v != serial %v", i, k, r.HR, want)
				}
			case simple.Name():
				if want := simple.EstimateHR(w); r.HR != want {
					t.Fatalf("session %d window %d: simple HR %v != %v", i, k, r.HR, want)
				}
			default:
				t.Fatalf("unexpected model %q", r.Model)
			}
		}
	}
	if tcnWindows == 0 {
		t.Fatal("no window was routed to the TCN — the batch path went untested")
	}
}

// countEst is a trapEst that records how windows reach it: the size of
// every EstimateHRBatch call and the number of EstimateHR calls.
type countEst struct {
	trapEst
	mu      sync.Mutex
	batches []int
	singles int
}

func (e *countEst) EstimateHR(w *dalia.Window) float64 {
	e.mu.Lock()
	e.singles++
	e.mu.Unlock()
	return e.trapEst.EstimateHR(w)
}

func (e *countEst) EstimateHRBatch(ws []dalia.Window, out []float64) {
	e.mu.Lock()
	e.batches = append(e.batches, len(ws))
	e.mu.Unlock()
	e.trapEst.EstimateHRBatch(ws, out)
}

func (e *countEst) CloneEstimator() models.HREstimator { return e }

// TestSingletonChunkRunsBatched: a 33-window group splits into chunks of
// 32 and 1, and the lone window reaches the model's batch path too. A
// poisoned window still costs only itself: its chunk falls back to
// per-window inference, the other chunk stays batched.
func TestSingletonChunkRunsBatched(t *testing.T) {
	sys, _, ws := fixture(t)
	simple := &countEst{trapEst: trapEst{biasEst{name: "cheap", ops: 3_000, bias: 8}}}
	complex := &countEst{trapEst: trapEst{biasEst{name: "best", ops: 12_000_000, bias: 2}}}
	eng := buildEngine(t, simple, complex)
	const n = 33
	for _, tc := range []struct {
		poisoned int // window index, -1 for none
		singles  int // per-window fallback calls
	}{{-1, 0}, {7, 32}, {n - 1, 1}} {
		complex.batches, complex.singles = nil, 0
		vc := NewVirtualClock()
		// Session IDs sort in index order, so window i is job i of the
		// group. MAE ≤ 2.01 BPM leaves only configurations that run every
		// window on the complex model, so all n form one group.
		e, err := Open(Config{Engine: eng, System: sys, Constraint: core.MAEConstraint(2.01), Clock: vc})
		if err != nil {
			t.Fatal(err)
		}
		sessions := make([]*Session, n)
		for i := range sessions {
			if sessions[i], err = e.NewSession(fmt.Sprintf("s%02d", i)); err != nil {
				t.Fatal(err)
			}
			w := ws[i]
			if i == tc.poisoned {
				w.Start = poisonStart
			}
			if st := sessions[i].Submit(&w, vc.Now()); st != SubmitOK {
				t.Fatal(st)
			}
		}
		e.Tick()
		for i, s := range sessions {
			res := s.Drain()
			if len(res) != 1 {
				t.Fatalf("poisoned %d: session %d has %d results", tc.poisoned, i, len(res))
			}
			r := res[0]
			switch {
			case i == tc.poisoned:
				if r.Outcome != OutcomePanic {
					t.Fatalf("poisoned window: %+v", r)
				}
			case r.Model != complex.Name() || r.Outcome.Discarded() || r.HR != complex.biasEst.EstimateHR(&ws[i]):
				t.Fatalf("poisoned %d: window %d result %+v, want %q's estimate", tc.poisoned, i, r, complex.Name())
			}
		}
		e.Close()
		slices.Sort(complex.batches)
		if !slices.Equal(complex.batches, []int{1, n - 1}) || complex.singles != tc.singles {
			t.Fatalf("poisoned %d: batch calls %v and %d per-window calls, want [1 %d] and %d",
				tc.poisoned, complex.batches, complex.singles, n-1, tc.singles)
		}
	}
}
