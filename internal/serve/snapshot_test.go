package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw/power"
	"repro/internal/sim"
)

// durableConfig is the maximal-state lockstep config: worst-case faults
// plus the belief filter, so a checkpoint exercises every field the codec
// carries.
func durableConfig(t testing.TB) (Config, *VirtualClock) {
	cfg, vc := lockstepConfig(t)
	sc := faults.WorstCase()
	cfg.Faults = &sc
	cfg.FaultSeed = 7
	cfg.Belief = servePolicy(t)
	return cfg, vc
}

// driveCycles submits one window per session per cycle and ticks, exactly
// like the chrisserve virtual driver.
func driveCycles(e *Engine, vc *VirtualClock, sessions []*Session, ws []dalia.Window, from, to int) {
	for c := from; c < to; c++ {
		for i, s := range sessions {
			s.Submit(&ws[(i*97+c)%len(ws)], vc.Now())
		}
		e.Tick()
		vc.Advance(e.cfg.System.PeriodSeconds)
	}
}

// TestCheckpointResumeBitwise pins the crash-recovery contract: kill an
// engine after a quiesced checkpoint, restore the snapshot into a fresh
// engine (fresh clock, fresh sessions), continue the same submission
// schedule — results and stats must be byte-identical to a run that never
// stopped.
func TestCheckpointResumeBitwise(t *testing.T) {
	_, _, ws := fixture(t)
	const nSessions, half, total = 4, 30, 60
	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("u%02d", i)
	}
	open := func(t *testing.T) (*Engine, *VirtualClock, []*Session) {
		cfg, vc := durableConfig(t)
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sessions := make([]*Session, nSessions)
		for i, id := range ids {
			if sessions[i], err = e.NewSession(id); err != nil {
				t.Fatal(err)
			}
		}
		return e, vc, sessions
	}

	// Uninterrupted baseline.
	eA, vcA, sA := open(t)
	driveCycles(eA, vcA, sA, ws, 0, total)
	if err := eA.Close(); err != nil {
		t.Fatal(err)
	}
	baseline := make(map[string]sessionOutput, nSessions)
	for i, id := range ids {
		baseline[id] = sessionOutput{Results: sA[i].Drain(), Stats: sA[i].Stats()}
	}

	// Crashed-and-resumed run: checkpoint at quiesce mid-run, abandon the
	// engine (the crash), restore into a fresh one.
	eB, vcB, sB := open(t)
	driveCycles(eB, vcB, sB, ws, 0, half)
	if eB.Pending() != 0 {
		t.Fatalf("not quiesced at checkpoint: %d pending", eB.Pending())
	}
	blob := eB.Snapshot()

	cfg2, vc2 := durableConfig(t)
	e2, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(blob); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := vc2.Now(); got != vcB.Now() {
		t.Fatalf("restored clock %v, want %v", got, vcB.Now())
	}
	s2 := make([]*Session, nSessions)
	for i, id := range ids {
		if s2[i] = e2.Session(id); s2[i] == nil {
			t.Fatalf("session %q not restored", id)
		}
	}
	driveCycles(e2, vc2, s2, ws, half, total)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got := sessionOutput{Results: s2[i].Drain(), Stats: s2[i].Stats()}
		if !reflect.DeepEqual(got, baseline[id]) {
			t.Errorf("session %s: resumed output differs from uninterrupted:\n%+v\nvs\n%+v",
				id, got, baseline[id])
		}
	}

	// The checkpoint itself must be canonical: restore → re-snapshot is
	// byte-identical.
	cfg3, _ := durableConfig(t)
	e3, err := Open(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if err := e3.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e3.Snapshot(), blob) {
		t.Error("restore → snapshot is not byte-identical")
	}
}

// TestMigrationBitwise pins live migration: drain → Detach → Attach moves
// a session to another engine, and its subsequent windows are
// byte-identical to never having migrated.
func TestMigrationBitwise(t *testing.T) {
	_, _, ws := fixture(t)
	const half, total = 25, 50
	ids := []string{"u00", "u01"}
	open := func(t *testing.T) (*Engine, *VirtualClock) {
		cfg, vc := durableConfig(t)
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e, vc
	}
	newSessions := func(t *testing.T, e *Engine, ids []string) []*Session {
		out := make([]*Session, len(ids))
		var err error
		for i, id := range ids {
			if out[i], err = e.NewSession(id); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	// Baseline: both sessions live on one engine the whole run.
	eA, vcA := open(t)
	sA := newSessions(t, eA, ids)
	driveCycles(eA, vcA, sA, ws, 0, total)
	if err := eA.Close(); err != nil {
		t.Fatal(err)
	}
	baseline := make(map[string]sessionOutput, len(ids))
	for i, id := range ids {
		baseline[id] = sessionOutput{Results: sA[i].Drain(), Stats: sA[i].Stats()}
	}

	// Migration run: u01 moves engines mid-stream.
	eB, vcB := open(t)
	sB := newSessions(t, eB, ids)
	driveCycles(eB, vcB, sB, ws, 0, half)
	frame, err := eB.Detach("u01")
	if err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if eB.Session("u01") != nil {
		t.Fatal("detached session still registered at source")
	}
	eC, vcC := open(t)
	defer eC.Close()
	vcC.Advance(vcB.Now()) // destination clock catches up before attach
	mig, err := eC.Attach(frame)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	// u00 continues on B (session index preserved by the driver schedule),
	// u01 on C; both see the same windows as the baseline run.
	for c := half; c < total; c++ {
		sB[0].Submit(&ws[(0*97+c)%len(ws)], vcB.Now())
		mig.Submit(&ws[(1*97+c)%len(ws)], vcC.Now())
		eB.Tick()
		eC.Tick()
		vcB.Advance(eB.cfg.System.PeriodSeconds)
		vcC.Advance(eC.cfg.System.PeriodSeconds)
	}
	if err := eB.Close(); err != nil {
		t.Fatal(err)
	}

	gotU0 := sessionOutput{Results: sB[0].Drain(), Stats: sB[0].Stats()}
	if !reflect.DeepEqual(gotU0, baseline["u00"]) {
		t.Error("non-migrated neighbour diverged from baseline")
	}
	gotU1 := sessionOutput{Results: mig.Drain(), Stats: mig.Stats()}
	if gotU1.Stats.Migrations != 1 {
		t.Errorf("Migrations = %d, want 1", gotU1.Stats.Migrations)
	}
	wantU1 := baseline["u01"]
	gotU1.Stats.Migrations = 0
	if !reflect.DeepEqual(gotU1, wantU1) {
		t.Errorf("migrated session diverged from never-migrated baseline:\n%+v\nvs\n%+v",
			gotU1, wantU1)
	}
}

// TestDetachRequiresQuiesce: a session with queued windows cannot be
// detached — migration never silently drops admitted work.
func TestDetachRequiresQuiesce(t *testing.T) {
	cfg, vc := durableConfig(t)
	_, _, ws := fixture(t)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := e.NewSession("u00")
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(&ws[0], vc.Now())
	if _, err := e.Detach("u00"); err == nil {
		t.Fatal("Detach accepted a session with queued windows")
	}
	e.Tick()
	if _, err := e.Detach("u00"); err != nil {
		t.Fatalf("Detach after drain: %v", err)
	}
	if _, err := e.Detach("u00"); err == nil {
		t.Fatal("Detach accepted an unknown session")
	}
}

// snapshotFixture runs a small engine and returns a mid-run checkpoint.
func snapshotFixture(t testing.TB) []byte {
	cfg, vc := durableConfig(t)
	_, _, ws := fixture(t)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sessions := make([]*Session, 3)
	for i := range sessions {
		if sessions[i], err = e.NewSession(fmt.Sprintf("u%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	driveCycles(e, vc, sessions, ws, 0, 12)
	return e.Snapshot()
}

// TestRestoreRejectsCorruption drives every injected corruption kind over
// a real checkpoint: truncations, torn writes and bit flips must all be
// rejected with a typed error — never accepted, never a panic.
func TestRestoreRejectsCorruption(t *testing.T) {
	blob := snapshotFixture(t)
	fresh := func(t *testing.T) *Engine {
		cfg, _ := durableConfig(t)
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	for _, kind := range faults.CorruptKinds() {
		rng := faults.NewRand(31)
		for i := 0; i < 60; i++ {
			bad := faults.Corrupt(blob, kind, rng)
			e := fresh(t)
			err := e.Restore(bad)
			if err == nil {
				t.Fatalf("%v corruption %d restored cleanly", kind, i)
			}
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotStale) {
				t.Fatalf("%v corruption %d: untyped error %v", kind, i, err)
			}
			// A failed restore leaves the engine usable and empty.
			if _, err := e.NewSession("fresh"); err != nil {
				t.Fatalf("engine unusable after rejected restore: %v", err)
			}
		}
	}

	// Version bump: intact bytes, future framing → stale.
	bumped := append([]byte(nil), blob...)
	bumped[4]++
	if err := fresh(t).Restore(bumped); !errors.Is(err, ErrSnapshotStale) {
		t.Errorf("version bump = %v, want ErrSnapshotStale", err)
	}

	// Config-hash mismatch: a checkpoint from a differently seeded engine.
	cfg, _ := durableConfig(t)
	cfg.FaultSeed = 99
	other, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Restore(blob); !errors.Is(err, ErrSnapshotStale) {
		t.Errorf("config mismatch = %v, want ErrSnapshotStale", err)
	}
}

// TestAttachOrFreshDegradation: a corrupt or stale session frame degrades
// to a fresh session — uniform belief prior, zeroed protocol state, the
// failure recorded in stats — and the stream keeps flowing.
func TestAttachOrFreshDegradation(t *testing.T) {
	cfg, vc := durableConfig(t)
	_, _, ws := fixture(t)
	src, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	s, err := src.NewSession("u00")
	if err != nil {
		t.Fatal(err)
	}
	driveCycles(src, vc, []*Session{s}, ws, 0, 8)
	frame, err := src.Detach("u00")
	if err != nil {
		t.Fatal(err)
	}

	rng := faults.NewRand(17)
	for _, kind := range faults.CorruptKinds() {
		cfgD, vcD := durableConfig(t)
		dst, err := Open(cfgD)
		if err != nil {
			t.Fatal(err)
		}
		bad := faults.Corrupt(frame, kind, rng)
		got, aerr := dst.AttachOrFresh("u00", bad)
		if aerr == nil {
			t.Fatalf("%v: corrupted frame attached cleanly", kind)
		}
		if !errors.Is(aerr, ErrSnapshotCorrupt) && !errors.Is(aerr, ErrSnapshotStale) {
			t.Fatalf("%v: untyped degradation error %v", kind, aerr)
		}
		if got == nil {
			t.Fatalf("%v: no fresh session after degradation", kind)
		}
		st := got.Stats()
		if st.RestoreFailures != 1 || st.RestoreError == "" {
			t.Errorf("%v: degradation not recorded: %+v", kind, st)
		}
		// The fresh session must actually serve windows.
		got.Submit(&ws[0], vcD.Now())
		dst.Tick()
		if res := got.Drain(); len(res) != 1 {
			t.Errorf("%v: degraded session produced %d results", kind, len(res))
		}
		dst.Close()
	}

	// The pristine frame still attaches exactly.
	cfgD, _ := durableConfig(t)
	dst, err := Open(cfgD)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	mig, err := dst.AttachOrFresh("u00", frame)
	if err != nil {
		t.Fatalf("pristine frame: %v", err)
	}
	if mig.Stats().Migrations != 1 || mig.Stats().RestoreFailures != 0 {
		t.Errorf("pristine attach stats: %+v", mig.Stats())
	}
}

// TestAttachRejectsForgedLedger: a CRC-intact session frame whose ledger
// holds a tally no stream can produce, or whose stats name another
// active configuration than its carry, is rejected as corrupt, on the
// same decode path Restore takes.
func TestAttachRejectsForgedLedger(t *testing.T) {
	_, _, ws := fixture(t)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mod  func(st *SessionStats)
	}{
		{"unmodified", nil},
		{"NaN phone energy", func(st *SessionStats) { st.PhoneEnergy = power.Energy(nan) }},
		{"negative radio energy", func(st *SessionStats) { st.RadioEnergy = -5 }},
		{"infinite retransmit energy", func(st *SessionStats) { st.RetransmitEnergy = power.Energy(inf) }},
		{"infinite error sum", func(st *SessionStats) { st.AbsErrSum = inf }},
		{"negative fault error sum", func(st *SessionStats) { st.FaultAbsErrSum = -1 }},
		{"NaN belief width sum", func(st *SessionStats) { st.BeliefWidthSum = nan }},
		{"more covered than predicted", func(st *SessionStats) { st.BeliefCovered = st.Predictions + 1 }},
		{"bogus active config", func(st *SessionStats) { st.ActiveConfig = "bogus" }},
	}
	for _, tc := range cases {
		cfg, vc := durableConfig(t)
		src, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := src.NewSession("u00")
		if err != nil {
			t.Fatal(err)
		}
		driveCycles(src, vc, []*Session{s}, ws, 0, 4)
		if tc.mod != nil {
			s.smu.Lock()
			tc.mod(&s.stats)
			s.smu.Unlock()
		}
		frame, err := src.Detach("u00")
		if err != nil {
			t.Fatal(err)
		}
		src.Close()

		cfgD, _ := durableConfig(t)
		dst, err := Open(cfgD)
		if err != nil {
			t.Fatal(err)
		}
		_, err = dst.Attach(frame)
		switch {
		case tc.mod == nil && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.mod != nil && !errors.Is(err, ErrSnapshotCorrupt):
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", tc.name, err)
		}
		dst.Close()
	}
}

// TestWallModeAutoCheckpoint: a wall-clock engine with CheckpointPath set
// persists snapshots on its own cadence, atomically, and the file
// restores into a compatible engine.
func TestWallModeAutoCheckpoint(t *testing.T) {
	sys, eng, ws := fixture(t)
	path := filepath.Join(t.TempDir(), "serve.chss")
	cfg := Config{
		Engine:            eng,
		System:            sys,
		Constraint:        core.MAEConstraint(6),
		FlushSeconds:      0.002,
		CheckpointPath:    path,
		CheckpointSeconds: 0.01,
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession("u00")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.SubmitNow(&ws[i])
		time.Sleep(20 * time.Millisecond)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	if _, err := os.Stat(path + ".partial"); !errors.Is(err, os.ErrNotExist) {
		t.Error("partial file left behind")
	}
	cfg2 := cfg
	cfg2.Clock = NewVirtualClock()
	cfg2.CheckpointPath = ""
	e2, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.Restore(data); err != nil {
		t.Fatalf("restore wall checkpoint: %v", err)
	}
	if e2.Session("u00") == nil {
		t.Fatal("session missing after wall restore")
	}
}

// FuzzSnapshot is the native fuzz target over the engine checkpoint
// format: any input either is rejected with a typed error or restores
// cleanly — and an accepted frame re-encodes byte-identically (canonical
// encoding) with every restored belief posterior still on the simplex.
func FuzzSnapshot(f *testing.F) {
	valid := snapshotFixture(f)
	f.Add(valid)
	rng := faults.NewRand(3)
	for _, kind := range faults.CorruptKinds() {
		f.Add(faults.Corrupt(valid, kind, rng))
	}
	f.Add([]byte("CHSS"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, _ := durableConfig(t)
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.Restore(data); err != nil {
			// Every rejection is typed, except a frame naming the same
			// session twice, which fails at registration with a plain
			// duplicate-ID error before the canonical-order check runs.
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotStale) &&
				!strings.Contains(err.Error(), "duplicate session id") {
				t.Fatalf("untyped restore error: %v", err)
			}
			return
		}
		if got := e.Snapshot(); !bytes.Equal(got, data) {
			t.Fatal("accepted frame does not re-encode byte-identically")
		}
		e.mu.Lock()
		sessions := append([]*Session(nil), e.order...)
		e.mu.Unlock()
		for _, s := range sessions {
			var c sim.Carry
			if s.step.Save(&c); !c.Belief {
				continue
			}
			sum := 0.0
			for _, v := range c.Post {
				if v < 0 || math.IsNaN(v) {
					t.Fatalf("restored posterior holds %v", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("restored posterior mass %v off the simplex", sum)
			}
		}
	})
}

// TestCheckpointActiveConfigAgrees restores every checkpoint of a
// worst-case chaos run — overload bursts, poisoned windows and
// belief-gated reselections — and requires each session's stats to name
// the same active configuration as its step carry: a frame never names
// two.
func TestCheckpointActiveConfigAgrees(t *testing.T) {
	const nSessions, cycles = 8, 64
	cfg, vc := durableConfig(t)
	_, _, ws := fixture(t)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ids := make([]string, nSessions)
	sessions := make([]*Session, nSessions)
	scheds := make([][][]chaosSub, nSessions)
	for i := range sessions {
		ids[i] = fmt.Sprintf("u%02d", i)
		if sessions[i], err = e.NewSession(ids[i]); err != nil {
			t.Fatal(err)
		}
		scheds[i] = chaosSchedule(ids[i], len(ws), cycles)
	}
	for c := 0; c < cycles; c++ {
		for i, s := range sessions {
			for _, sub := range scheds[i][c] {
				w := &ws[sub.wi]
				if sub.poison {
					p := ws[sub.wi]
					p.Start = poisonStart
					w = &p
				}
				s.Submit(w, vc.Now())
			}
		}
		e.Tick()
		vc.Advance(cfg.System.PeriodSeconds)

		cfgR, _ := durableConfig(t)
		r, err := Open(cfgR)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Restore(e.Snapshot()); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		for _, id := range ids {
			s := r.sessions[id]
			if got, want := s.stats.ActiveConfig, s.step.ActiveConfig(); got != want {
				t.Fatalf("cycle %d session %s: stats name %q, carry %q", c, id, got, want)
			}
		}
		r.Close()
	}
	var reselections uint64
	for _, s := range sessions {
		reselections += s.Stats().Reselections
	}
	if reselections == 0 {
		t.Fatal("the run never reselected a configuration")
	}
	t.Logf("%d reselections over %d sessions", reselections, nSessions)
}
