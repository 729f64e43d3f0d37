package serve

import (
	"fmt"
	"sync"

	"repro/internal/belief"
	"repro/internal/dalia"
	"repro/internal/hw/power"
	"repro/internal/sim"
)

// SubmitStatus reports how the admission control treated one window.
type SubmitStatus uint8

const (
	// SubmitOK: the window was admitted to the session mailbox.
	SubmitOK SubmitStatus = iota
	// SubmitDropped: the session mailbox is full; the window was dropped
	// and counted (overload-ladder rung 1 — the caller may fall back to
	// an on-watch estimate itself).
	SubmitDropped
	// SubmitRejected: the engine-wide admission bound is saturated; the
	// window was rejected before touching the mailbox.
	SubmitRejected
	// SubmitClosed: the session or engine no longer accepts work.
	SubmitClosed
)

// String names the status.
func (s SubmitStatus) String() string {
	switch s {
	case SubmitOK:
		return "ok"
	case SubmitDropped:
		return "dropped"
	case SubmitRejected:
		return "rejected"
	case SubmitClosed:
		return "closed"
	default:
		return "unknown"
	}
}

// job is one window travelling through the pipeline: admission fields set
// at Submit, the route set by stage 1 (sim.Step's dispatch and offload
// protocol), the estimate set by the coalesced inference stage, and
// everything folded into results and stats by finalize.
type job struct {
	seq      uint64
	w        *dalia.Window
	arrival  float64
	deadline float64

	shed        bool // mailbox past high water at collect: degrade to simple
	route       sim.Route
	model       string // route.Model's name; "" once discarded
	outcome     Outcome
	skip        bool // no inference (expired or panicked in stage 1)
	panicked    bool
	phoneEnergy power.Energy
	hr          float64
	ciWidth     float64 // posterior credible-interval width after fusion
}

// Session is one user's isolated slice of the engine: a bounded mailbox,
// the per-window offload pipeline (sim.Step: burst-channel Markov state,
// seeded random stream, reconnect holdoff, reselection hysteresis), and
// the accumulated results and counters. All fault state is derived from
// the engine's scenario and the session ID alone, so a session's results
// are a pure function of its own inputs — never of its neighbours'.
type Session struct {
	id  string
	eng *Engine

	// smu guards mailbox, seq, results, stats and closed; it is never held
	// across model inference.
	smu     sync.Mutex
	mailbox []job
	seq     uint64
	results []WindowResult
	stats   SessionStats
	closed  bool

	// Pipeline state below is touched only by the engine's cycle (one
	// cycle runs at a time), never concurrently with itself.
	step *sim.Step
	// bf is the session's belief filter (nil unless Config.Belief is
	// set); rmsBuf is its reusable motion-RMS scratch. Unlike the step's
	// pipeline state, the filter deliberately survives restart: it
	// tracks the stream's history, not the pipeline's health.
	bf     *belief.Filter
	rmsBuf []float64
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Submit offers one window to the session with an explicit arrival
// timestamp (engine seconds, usually Clock.Now; see SubmitNow). The call
// never blocks: admission control answers immediately with the window's
// fate. Windows must be submitted with non-decreasing timestamps.
func (s *Session) Submit(w *dalia.Window, at float64) SubmitStatus {
	e := s.eng
	s.smu.Lock()
	s.stats.Submitted++
	if s.closed || e.closed.Load() {
		s.stats.Rejected++
		s.smu.Unlock()
		return SubmitClosed
	}
	if e.cfg.MaxPending > 0 && int(e.pending.Load()) >= e.cfg.MaxPending {
		// Engine-wide admission bound: total queued work across all
		// sessions is capped, so a flood of sessions cannot OOM the
		// server. This rung depends on global state and is therefore
		// excluded from the per-session determinism contract (doc.go).
		s.stats.Rejected++
		s.smu.Unlock()
		return SubmitRejected
	}
	if len(s.mailbox) >= e.mailboxDepth {
		s.stats.Dropped++
		s.smu.Unlock()
		return SubmitDropped
	}
	s.mailbox = append(s.mailbox, job{
		seq:      s.seq,
		w:        w,
		arrival:  at,
		deadline: at + e.deadlineSec,
	})
	s.seq++
	s.stats.Accepted++
	s.smu.Unlock()
	e.pending.Add(1)
	e.wakePump()
	return SubmitOK
}

// SubmitNow is Submit stamped with the engine clock.
func (s *Session) SubmitNow(w *dalia.Window) SubmitStatus {
	return s.Submit(w, s.eng.clock.Now())
}

// Close stops accepting new windows; already-admitted windows still
// finish. Idempotent.
func (s *Session) Close() {
	s.smu.Lock()
	s.closed = true
	s.smu.Unlock()
}

// Drain returns the results accumulated since the last Drain, in
// submission order, and clears the buffer.
func (s *Session) Drain() []WindowResult {
	s.smu.Lock()
	r := s.results
	s.results = nil
	s.smu.Unlock()
	return r
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() SessionStats {
	s.smu.Lock()
	st := s.stats
	s.smu.Unlock()
	return st
}

// collect drains the mailbox into a work list for this cycle. The
// high-water check happens here, against the session's own backlog only:
// a session whose mailbox ran past the mark has fallen behind the
// engine's draining cadence, and every window collected this cycle
// degrades to the watch-side simple model (overload-ladder rung 3).
func (s *Session) collect() []job {
	e := s.eng
	s.smu.Lock()
	jobs := s.mailbox
	s.mailbox = nil
	s.smu.Unlock()
	if len(jobs) > e.highWater {
		for i := range jobs {
			jobs[i].shed = true
		}
	}
	return jobs
}

// restart re-initializes the session after a recovered panic: fresh
// configuration selection, cleared hysteresis and channel state. The
// mailbox, results, counters and the random stream survive — a restart
// heals the pipeline state, it does not rewrite history.
func (s *Session) restart(t float64) {
	// Start cannot fail: NewSession checked both link states.
	_ = s.step.Start(t)
	s.smu.Lock()
	s.stats.Restarts++
	s.stats.ActiveConfig = s.step.ActiveConfig()
	s.smu.Unlock()
}

// stage1 routes this cycle's jobs in submission order: deadline triage,
// overload shedding, dispatch, and the offload protocol. Each job is
// panic-isolated — a panicking dispatcher or classifier marks only that
// window and restarts only this session.
func (s *Session) stage1(now float64, jobs []job) []job {
	for i := range jobs {
		s.step1(now, &jobs[i])
	}
	return jobs
}

// step1 handles one job; recover converts a panic into an OutcomePanic
// window plus a session restart, leaving later windows to proceed on the
// fresh state.
func (s *Session) step1(now float64, j *job) {
	defer func() {
		if r := recover(); r != nil {
			j.panicked = true
			j.skip = true
			j.outcome = OutcomePanic
			j.route.Model = nil
			s.restart(now)
		}
	}()
	e := s.eng

	// Rung 2: the deadline already passed while the window queued —
	// discard before spending any inference on it.
	if now > j.deadline {
		j.outcome = OutcomeExpired
		j.skip = true
		return
	}
	// Rung 3: session overloaded — degrade to the simple model without
	// consulting the dispatcher, exactly the ladder the offline fault
	// loop uses when the offload pipeline fails.
	if j.shed {
		j.outcome = OutcomeShed
		j.route.Model = s.step.Current().Simple
		j.model = j.route.Model.Name()
		return
	}

	// Every job routed this cycle shares the pre-cycle belief: the
	// decision is made before any of the cycle's results exist, exactly
	// like a real device deciding on stale belief. Window cannot fail:
	// NewSession checked both link states.
	_ = s.step.Window(&j.route, j.arrival, j.w, true)
	r := &j.route
	j.model = r.Model.Name()
	for k := 0; k < r.Offload.PhoneComputes; k++ {
		j.phoneEnergy += e.cfg.System.PhoneEnergy(r.Dispatched)
	}
	switch {
	case r.Fallback:
		j.outcome = OutcomeFallback
	case r.Simple:
		j.outcome = OutcomeSimple
	default:
		j.outcome = OutcomeFull
	}
	if r.Reselected {
		s.smu.Lock()
		s.stats.Reselections++
		s.stats.ActiveConfig = s.step.ActiveConfig()
		s.smu.Unlock()
	}
}

// finalize folds this cycle's finished jobs into results and stats, in
// submission order. completion is the cycle's single completion
// timestamp; a result that lands past its deadline is discarded here
// (late-result discard) even though the inference energy is already
// spent.
func (s *Session) finalize(completion float64, jobs []job) {
	e := s.eng
	s.smu.Lock()
	for i := range jobs {
		j := &jobs[i]
		if j.panicked {
			j.outcome = OutcomePanic
			j.hr = 0
			j.model = ""
			s.stats.Panics++
		} else if !j.skip && completion > j.deadline && !j.outcome.Discarded() {
			s.stats.Late++
			j.outcome = OutcomeLate
			j.hr = 0
		}
		if s.bf != nil {
			// Fuse in submission order: discarded windows coast (time
			// passes for the hidden chain with no estimate), everything
			// else updates the posterior with the producing model's
			// motion-scaled sigma.
			if j.outcome.Discarded() {
				s.bf.Coast()
			} else {
				pol := e.cfg.Belief
				var rms float64
				rms, s.rmsBuf = belief.MotionRMS(j.w, s.rmsBuf)
				s.bf.ObserveGaussian(j.hr, pol.Sigma(j.model, rms))
				j.ciWidth = s.bf.Width(pol.Mass)
				if pol.Smooth {
					j.hr = s.bf.Mean()
				}
			}
			if j.route.Gated {
				s.stats.GatedWindows++
			}
		}
		switch j.outcome {
		case OutcomeFull:
			s.stats.FullRuns++
			if j.route.Offloaded {
				s.stats.Offloaded++
			}
		case OutcomeSimple:
			s.stats.SimpleRuns++
		case OutcomeFallback:
			s.stats.FallbackWindows++
			if j.route.Attempted {
				s.stats.DeadlineMisses++
			}
		case OutcomeShed:
			s.stats.ShedWindows++
		case OutcomeExpired:
			s.stats.Expired++
		}
		out := &j.route.Offload
		s.stats.Retries += uint64(out.Retries)
		s.stats.Timeouts += uint64(out.Timeouts)
		s.stats.RetransmitPackets += uint64(out.RetransmitPackets)
		if out.SupervisionDrop {
			s.stats.SupervisionDrops++
		}
		s.stats.RadioEnergy += out.RadioEnergy
		s.stats.RetransmitEnergy += out.RetransmitEnergy
		s.stats.PhoneEnergy += j.phoneEnergy
		s.stats.ActiveConfig = s.step.ActiveConfig()
		s.results = append(s.results, WindowResult{
			Seq:        j.seq,
			Arrival:    j.arrival,
			HR:         j.hr,
			Model:      j.model,
			Outcome:    j.outcome,
			Offloaded:  j.route.Offloaded,
			Difficulty: j.route.Difficulty,
			Latency:    completion - j.arrival,
			Gated:      j.route.Gated,
			CIWidth:    j.ciWidth,
		})
	}
	s.smu.Unlock()
	e.pending.Add(-int64(len(jobs)))
	e.progress.Add(uint64(len(jobs)))
}

// String summarizes the session.
func (s *Session) String() string {
	st := s.Stats()
	return fmt.Sprintf("session %s: %d accepted, %d finished, config %s",
		s.id, st.Accepted, st.Finished(), st.ActiveConfig)
}
