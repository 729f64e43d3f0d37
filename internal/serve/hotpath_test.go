package serve

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/faults"
)

// clonePolicy deep-copies a belief policy so a test can mutate one knob
// without touching the shared fixture.
func clonePolicy(p *belief.Policy) *belief.Policy {
	c := *p
	tab := *p.Table
	tab.P = append([]float64(nil), p.Table.P...)
	c.Table = &tab
	c.Sigmas = make(map[string]belief.SigmaSpec, len(p.Sigmas))
	for k, v := range p.Sigmas {
		c.Sigmas[k] = v
	}
	return &c
}

// TestConfigHashCoversKnobs ensures every knob that shapes a session
// trajectory moves the checkpoint fingerprint, so resuming under a
// changed configuration is rejected as stale rather than silently mixed;
// that parallelism knobs do not move it; and that the value Open fixes
// equals a from-scratch recomputation.
func TestConfigHashCoversKnobs(t *testing.T) {
	base := func() Config {
		cfg, _ := durableConfig(t)
		cfg.Belief = clonePolicy(cfg.Belief)
		// Explicit bounds, so that changing the period or the mailbox
		// does not move the hash only through a derived default.
		cfg.DeadlineSeconds = cfg.System.PeriodSeconds
		cfg.MailboxDepth = 16
		cfg.HighWater = 8
		return cfg
	}
	hash := func(cfg Config) uint64 {
		t.Helper()
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if got, want := e.ConfigHash(), e.configHash(); got != want {
			t.Fatalf("ConfigHash %x fixed at Open, recomputed %x", got, want)
		}
		return e.ConfigHash()
	}
	h0 := hash(base())

	mutate := []struct {
		name string
		fn   func(*Config)
	}{
		{"fault scenario", func(c *Config) { sc := faults.None(); c.Faults = &sc }},
		{"fault seed", func(c *Config) { c.FaultSeed++ }},
		{"protocol", func(c *Config) { c.Protocol.MaxRetries = 5 }},
		{"constraint", func(c *Config) { c.Constraint = core.MAEConstraint(7) }},
		{"period", func(c *Config) {
			sys := *c.System
			sys.PeriodSeconds *= 2
			c.System = &sys
		}},
		{"deadline", func(c *Config) { c.DeadlineSeconds /= 2 }},
		{"mailbox", func(c *Config) { c.MailboxDepth = 20 }},
		{"high water", func(c *Config) { c.HighWater = 6 }},
		{"max pending", func(c *Config) { c.MaxPending = 100 }},
		{"profile MAE", func(c *Config) {
			ps := append([]core.Profile(nil), c.Engine.Profiles()...)
			ps[0].MAE += 0.5
			eng, err := core.NewEngine(ps, fixedRater(3))
			if err != nil {
				t.Fatal(err)
			}
			c.Engine = eng
		}},
		{"belief smooth", func(c *Config) { c.Belief.Smooth = !c.Belief.Smooth }},
		{"belief gate", func(c *Config) { c.Belief.GateBPM = 9 }},
		{"belief mass", func(c *Config) { c.Belief.Mass = 0.8 }},
		{"belief sigma", func(c *Config) { c.Belief.Sigmas["cheap"] = belief.SigmaSpec{Base: 9} }},
		{"belief default sigma", func(c *Config) { c.Belief.DefaultSigma.Base++ }},
		{"belief table entry", func(c *Config) {
			// One ulp on one cell keeps the row on the simplex.
			p := c.Belief.Table.P
			for i, v := range p {
				if v > 0 {
					p[i] = math.Nextafter(v, 1)
					return
				}
			}
		}},
	}
	for _, m := range mutate {
		cfg := base()
		m.fn(&cfg)
		if hash(cfg) == h0 {
			t.Errorf("changing %s does not change the config hash", m.name)
		}
	}

	// Parallelism knobs must not move the hash: batched inference is
	// bitwise identical to serial, so a resumed engine may change them.
	cfg := base()
	cfg.Workers = 3
	cfg.BatchSize = 7
	if hash(cfg) != h0 {
		t.Error("Workers/BatchSize leak into the config hash")
	}
}

// steadyEngine opens a one-worker lockstep engine over the maximal-state
// config (worst-case faults, belief filter) and runs it past warm-up, so
// every session's mailbox arrays, the cycle scratch and the model clones
// are at their working size.
func steadyEngine(t *testing.T, nSessions int) (*Engine, *VirtualClock, []*Session) {
	t.Helper()
	cfg, vc := durableConfig(t)
	cfg.Workers = 1
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	sessions := make([]*Session, nSessions)
	for i := range sessions {
		if sessions[i], err = e.NewSession(fmt.Sprintf("u%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, ws := fixture(t)
	driveCycles(e, vc, sessions, ws, 0, 24)
	for _, s := range sessions {
		s.Drain()
	}
	return e, vc, sessions
}

// TestSteadyTickAllocs: a steady-state lockstep cycle — admission,
// routing through the detector and the belief gate, coalesced inference,
// finalize — allocates nothing beyond the one result slice per session
// that Drain hands out.
func TestSteadyTickAllocs(t *testing.T) {
	const nSessions = 8
	e, vc, sessions := steadyEngine(t, nSessions)
	_, _, ws := fixture(t)
	c := 24
	n := testing.AllocsPerRun(50, func() {
		driveCycles(e, vc, sessions, ws, c, c+1)
		c++
		for _, s := range sessions {
			if len(s.Drain()) != 1 {
				t.Fatal("want one result per session per cycle")
			}
		}
	})
	t.Logf("%v allocations per cycle", n)
	if n > nSessions {
		t.Fatalf("steady cycle allocates %v, want at most %d (the drained result slices)", n, nSessions)
	}
}

// TestSnapshotAllocs: a checkpoint encodes into one pre-sized frame, so
// the returned frame is its only allocation.
func TestSnapshotAllocs(t *testing.T) {
	e, vc, sessions := steadyEngine(t, 8)
	_, _, ws := fixture(t)
	driveCycles(e, vc, sessions, ws, 24, 26) // leave results undrained
	if n := testing.AllocsPerRun(20, func() { e.Snapshot() }); n != 1 {
		t.Fatalf("Snapshot makes %v allocations, want 1", n)
	}
	// Sizing is exact: the frame's capacity is its length.
	if data := e.Snapshot(); cap(data) != len(data) {
		t.Fatalf("frame length %d, capacity %d", len(data), cap(data))
	}
}
