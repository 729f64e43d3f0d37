package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"

	"repro/internal/hw/power"
	"repro/internal/reccache"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Typed restore failures, re-exported from the shared snapshot framing so
// callers can classify without importing internal/snapshot:
// ErrSnapshotCorrupt means damaged bytes (bad magic, failed CRC,
// truncation, malformed payload), ErrSnapshotStale an intact frame the
// engine cannot use (future version, wrong kind, config-hash mismatch).
// Both degrade deterministically: AttachOrFresh answers with a fresh
// session, never a panic or silently poisoned state.
var (
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	ErrSnapshotStale   = snapshot.ErrStale
)

// ConfigHash fingerprints every knob that shapes session trajectories:
// the fault scenario and seed, the offload protocol, the selection
// constraint, deadlines and mailbox bounds, the belief policy (grid,
// transition table, sigmas) and the profile store. Snapshots are bound to
// this hash, so a checkpoint taken under one configuration is rejected as
// stale under another. Workers and BatchSize are deliberately excluded:
// batched inference is bitwise identical to serial (pinned by the
// determinism tests), so a resumed engine may legally change parallelism.
func (e *Engine) ConfigHash() uint64 {
	h := fnv.New64a()
	c := &e.cfg
	fmt.Fprintf(h, "scenario=%+v seed=%d proto=%+v constraint=%+v", e.scenario, c.FaultSeed, c.Protocol.Resolved(), c.Constraint)
	fmt.Fprintf(h, " period=%g deadline=%g mailbox=%d highwater=%d maxpending=%d",
		c.System.PeriodSeconds, e.deadlineSec, e.mailboxDepth, e.highWater, c.MaxPending)
	for _, p := range c.Engine.Profiles() {
		fmt.Fprintf(h, " profile=%s mae=%g", p.Name(), p.MAE)
	}
	if pol := c.Belief; pol != nil {
		fmt.Fprintf(h, " belief smooth=%v gate=%g mass=%g default=%+v grid=%+v",
			pol.Smooth, pol.GateBPM, pol.Mass, pol.DefaultSigma, pol.Table.Grid)
		names := make([]string, 0, len(pol.Sigmas))
		for name := range pol.Sigmas {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, " sigma:%s=%+v", name, pol.Sigmas[name])
		}
		var b [8]byte
		for _, v := range pol.Table.P {
			putF64(&b, v)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func putF64(b *[8]byte, v float64) {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(bits >> (8 * i))
	}
}

// Snapshot serializes the complete durable state of the engine — every
// session's offload state machine, hysteresis streaks, reconnect holdoff,
// belief posterior, counters and undrained results — as one CHSS frame
// bound to ConfigHash. Queued mailbox windows are NOT captured: a crash
// loses in-flight work by contract (the same crash-loss semantics a real
// device has), so drivers that need hole-free resume checkpoint at
// quiesce (Pending() == 0). Safe to call concurrently with cycles.
func (e *Engine) Snapshot() []byte {
	e.cycleMu.Lock()
	defer e.cycleMu.Unlock()
	e.mu.Lock()
	sessions := make([]*Session, len(e.order))
	copy(sessions, e.order)
	e.mu.Unlock()

	w := snapshot.NewWriter(snapshot.KindServeEngine, e.ConfigHash())
	w.F64(e.clock.Now())
	w.U64(uint64(len(sessions)))
	for _, s := range sessions {
		s.encode(w)
	}
	return w.Finish()
}

// Checkpoint writes Snapshot() to path with the reccache atomic
// partial-file+rename discipline: readers observe either the previous
// complete checkpoint or the new one, never a torn write.
func (e *Engine) Checkpoint(path string) error {
	return reccache.WriteFileAtomic(path, e.Snapshot())
}

// Restore rebuilds every checkpointed session inside a freshly opened
// engine. The engine must have been opened with an equivalent Config
// (enforced by the config hash) and must not hold sessions yet. Under a
// VirtualClock the clock is advanced to the checkpoint instant, so a
// resumed run continues the exact timestamp sequence of the crashed one;
// a wall-mode engine restores state but restarts its clock at zero.
func (e *Engine) Restore(data []byte) error {
	r, err := snapshot.Open(data, snapshot.KindServeEngine, e.ConfigHash())
	if err != nil {
		return err
	}
	e.mu.Lock()
	empty := len(e.sessions) == 0
	e.mu.Unlock()
	if !empty {
		return errors.New("serve: restore into an engine that already has sessions")
	}
	snapNow := r.F64()
	n := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if math.IsNaN(snapNow) || math.IsInf(snapNow, 0) || snapNow < 0 {
		return fmt.Errorf("%w: checkpoint time %v", snapshot.ErrCorrupt, snapNow)
	}
	if vc, ok := e.clock.(*VirtualClock); ok {
		if d := snapNow - vc.Now(); d > 0 {
			vc.Advance(d)
		}
	}
	var restored []*Session
	fail := func(err error) error {
		for _, s := range restored {
			e.removeSession(s)
		}
		return err
	}
	prev := ""
	for i := uint64(0); i < n; i++ {
		s, err := e.decodeSession(r)
		if err != nil {
			return fail(err)
		}
		restored = append(restored, s)
		// Frames are canonical: sessions in strictly ascending ID order
		// (the order Snapshot emits), so re-encoding an accepted frame is
		// byte-identical — the FuzzSnapshot invariant.
		if i > 0 && s.id <= prev {
			return fail(fmt.Errorf("%w: session %q out of order", snapshot.ErrCorrupt, s.id))
		}
		prev = s.id
	}
	if err := r.Done(); err != nil {
		return fail(err)
	}
	return nil
}

// RestoreFile loads a checkpoint written by Checkpoint. A missing file is
// reported as os.ErrNotExist (a first run, not a failure); damaged or
// mismatched files carry ErrSnapshotCorrupt / ErrSnapshotStale.
func (e *Engine) RestoreFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return e.Restore(data)
}

// Detach removes a session from the engine and returns its complete state
// as a standalone CHSS frame — the live-migration unit. The session must
// be drained of queued work first (quiesce: no mailbox windows); the
// caller typically stops submitting, runs Tick until Pending() == 0, and
// then detaches. Undrained results travel inside the frame. After Detach
// the session is gone from this engine; Attach the frame elsewhere.
func (e *Engine) Detach(id string) ([]byte, error) {
	e.cycleMu.Lock()
	defer e.cycleMu.Unlock()
	e.mu.Lock()
	s := e.sessions[id]
	e.mu.Unlock()
	if s == nil {
		return nil, fmt.Errorf("serve: detach: unknown session %q", id)
	}
	s.smu.Lock()
	queued := len(s.mailbox)
	s.smu.Unlock()
	if queued > 0 {
		return nil, fmt.Errorf("serve: detach %q: %d windows still queued (drain first)", id, queued)
	}
	w := snapshot.NewWriter(snapshot.KindServeSession, e.ConfigHash())
	s.encode(w)
	frame := w.Finish()

	e.mu.Lock()
	delete(e.sessions, id)
	for i, o := range e.order {
		if o == s {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
	return frame, nil
}

// Attach restores a session frame produced by Detach into this engine.
// The destination must run an equivalent Config (config hash) and must
// not already hold the session's ID. The restored session continues its
// stream bitwise-identically to one that never migrated (pinned by
// TestMigrationBitwise); its Migrations counter increments.
func (e *Engine) Attach(data []byte) (*Session, error) {
	r, err := snapshot.Open(data, snapshot.KindServeSession, e.ConfigHash())
	if err != nil {
		return nil, err
	}
	s, err := e.decodeSession(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		e.removeSession(s)
		return nil, err
	}
	s.smu.Lock()
	s.stats.Migrations++
	s.smu.Unlock()
	return s, nil
}

// AttachOrFresh is the degradation path for fault-injected durability: it
// tries Attach and, when the frame is corrupt or stale, answers with a
// fresh session under id instead — uniform belief prior (the Coast fixed
// point), zeroed protocol state, RestoreFailures and RestoreError
// recording what happened. The typed error is returned alongside the
// usable session so callers can log the downgrade; any other error (for
// example a duplicate ID) is returned with a nil session.
func (e *Engine) AttachOrFresh(id string, data []byte) (*Session, error) {
	s, err := e.Attach(data)
	if err == nil {
		return s, nil
	}
	if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotStale) {
		return nil, err
	}
	fresh, ferr := e.NewSession(id)
	if ferr != nil {
		return nil, fmt.Errorf("serve: fresh session after restore failure (%v): %w", err, ferr)
	}
	fresh.smu.Lock()
	fresh.stats.RestoreFailures++
	fresh.stats.RestoreError = err.Error()
	fresh.smu.Unlock()
	return fresh, err
}

// encode appends the session's durable state to w. Callers hold cycleMu
// (excluding concurrent cycles); smu is taken here for the guarded
// fields.
func (s *Session) encode(w *snapshot.Writer) {
	s.smu.Lock()
	seq := s.seq
	closed := s.closed
	stats := s.stats
	results := append([]WindowResult(nil), s.results...)
	s.smu.Unlock()

	w.String(s.id)
	w.U64(seq)
	w.Bool(closed)

	w.U64(stats.Submitted)
	w.U64(stats.Accepted)
	w.U64(stats.Dropped)
	w.U64(stats.Rejected)
	w.U64(stats.FullRuns)
	w.U64(stats.SimpleRuns)
	w.U64(stats.FallbackWindows)
	w.U64(stats.ShedWindows)
	w.U64(stats.Expired)
	w.U64(stats.Late)
	w.U64(stats.Panics)
	w.U64(stats.Offloaded)
	w.U64(stats.Retries)
	w.U64(stats.Timeouts)
	w.U64(stats.SupervisionDrops)
	w.U64(stats.DeadlineMisses)
	w.U64(stats.RetransmitPackets)
	w.U64(stats.GatedWindows)
	w.U64(stats.Restarts)
	w.U64(stats.Reselections)
	w.U64(stats.Migrations)
	w.U64(stats.RestoreFailures)
	w.String(stats.RestoreError)
	w.F64(float64(stats.RadioEnergy))
	w.F64(float64(stats.RetransmitEnergy))
	w.F64(float64(stats.PhoneEnergy))
	w.String(stats.ActiveConfig)

	w.U64(uint64(len(results)))
	for i := range results {
		r := &results[i]
		w.U64(r.Seq)
		w.F64(r.Arrival)
		w.F64(r.HR)
		w.String(r.Model)
		w.U8(uint8(r.Outcome))
		w.Bool(r.Offloaded)
		w.I64(int64(r.Difficulty))
		w.F64(r.Latency)
		w.Bool(r.Gated)
		w.F64(r.CIWidth)
	}

	// Cycle-only pipeline state: offload machine, hysteresis, rng, belief.
	w.String(s.step.ActiveConfig())
	s.step.State().Encode(w)
	w.Bool(s.bf != nil)
	if s.bf != nil {
		post, predicted := s.bf.Snapshot(nil)
		w.F64s(post)
		w.Bool(predicted)
	}
}

// decodeSession reads one session's state from r and registers it in the
// engine. Structural damage surfaces as ErrSnapshotCorrupt; state the
// engine cannot host (unknown profile, belief mismatch) as
// ErrSnapshotStale.
func (e *Engine) decodeSession(r *snapshot.Reader) (*Session, error) {
	id := r.String()
	seq := r.U64()
	closed := r.Bool()

	var stats SessionStats
	stats.Submitted = r.U64()
	stats.Accepted = r.U64()
	stats.Dropped = r.U64()
	stats.Rejected = r.U64()
	stats.FullRuns = r.U64()
	stats.SimpleRuns = r.U64()
	stats.FallbackWindows = r.U64()
	stats.ShedWindows = r.U64()
	stats.Expired = r.U64()
	stats.Late = r.U64()
	stats.Panics = r.U64()
	stats.Offloaded = r.U64()
	stats.Retries = r.U64()
	stats.Timeouts = r.U64()
	stats.SupervisionDrops = r.U64()
	stats.DeadlineMisses = r.U64()
	stats.RetransmitPackets = r.U64()
	stats.GatedWindows = r.U64()
	stats.Restarts = r.U64()
	stats.Reselections = r.U64()
	stats.Migrations = r.U64()
	stats.RestoreFailures = r.U64()
	stats.RestoreError = r.String()
	stats.RadioEnergy = power.Energy(r.F64())
	stats.RetransmitEnergy = power.Energy(r.F64())
	stats.PhoneEnergy = power.Energy(r.F64())
	stats.ActiveConfig = r.String()

	nres := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	results := make([]WindowResult, 0, nres)
	for i := uint64(0); i < nres; i++ {
		var wr WindowResult
		wr.Seq = r.U64()
		wr.Arrival = r.F64()
		wr.HR = r.F64()
		wr.Model = r.String()
		o := r.U8()
		wr.Outcome = Outcome(o)
		wr.Offloaded = r.Bool()
		wr.Difficulty = int(r.I64())
		wr.Latency = r.F64()
		wr.Gated = r.Bool()
		wr.CIWidth = r.F64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if wr.Outcome > OutcomePanic {
			return nil, fmt.Errorf("%w: session %q result %d: outcome %d", snapshot.ErrCorrupt, id, i, o)
		}
		results = append(results, wr)
	}

	profileName := r.String()
	p := sim.DecodeProtoState(r)
	hasBelief := r.Bool()
	var post []float64
	var predicted bool
	if hasBelief {
		post = r.F64s()
		predicted = r.Bool()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: session %q: %v", snapshot.ErrCorrupt, id, err)
	}
	if hasBelief != (e.cfg.Belief != nil) {
		return nil, fmt.Errorf("%w: session %q: belief presence mismatch", snapshot.ErrStale, id)
	}

	s, err := e.NewSession(id)
	if err != nil {
		return nil, fmt.Errorf("serve: restore session %q: %w", id, err)
	}
	if err := s.step.Resume(profileName, p); err != nil {
		e.removeSession(s)
		return nil, fmt.Errorf("%w: session %q: %v", snapshot.ErrStale, id, err)
	}
	if s.bf != nil {
		if rerr := s.bf.Restore(post, predicted); rerr != nil {
			e.removeSession(s)
			return nil, fmt.Errorf("%w: session %q: %v", snapshot.ErrCorrupt, id, rerr)
		}
	}
	s.smu.Lock()
	s.seq = seq
	s.closed = closed
	s.stats = stats
	s.results = results
	s.smu.Unlock()
	return s, nil
}

// removeSession unregisters a half-restored session after a late decode
// failure, so a failed Restore leaves the engine exactly as it found it.
func (e *Engine) removeSession(s *Session) {
	e.mu.Lock()
	delete(e.sessions, s.id)
	for i, o := range e.order {
		if o == s {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
}
