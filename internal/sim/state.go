package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/hw/power"
	"repro/internal/snapshot"
)

// Carry is a Step's durable state: everything the per-window pipeline
// remembers between windows besides the Ledger. Step.Save writes it and
// Step.Restore installs it; RunState keeps it in State and serve.Session
// persists it per session, so one schema and one restore path cover both
// the offline simulator and the streaming engine.
type Carry struct {
	// Active names the active configuration.
	Active string
	// EngineUp is the link state the active configuration was selected
	// for (whether the engine selects from the full, hybrid-including
	// store). Without an injector it is the last link state seen, the
	// edge detector of immediate reselection.
	EngineUp bool
	// LinkDownUntil is the reconnect holdoff after a supervision drop.
	LinkDownUntil float64
	// FailStreak/GoodStreak/Cooldown are the hysteresis counters.
	FailStreak, GoodStreak, Cooldown int
	// ChannelBad is the Gilbert–Elliott chain state.
	ChannelBad bool
	// RngState is the fault stream's splitmix64 position.
	RngState uint64
	// Belief reports a belief filter; Post is its posterior and Predicted
	// whether the predictive has been rolled forward since the last
	// observation (see belief.Filter.Snapshot). Post is empty without one.
	Belief    bool
	Post      []float64
	Predicted bool
}

// Encode appends c to a CHSS payload; the sim-state and serve session
// frames both carry it in this field order.
func (c *Carry) Encode(w *snapshot.Writer) {
	w.String(c.Active)
	w.Bool(c.EngineUp)
	w.F64(c.LinkDownUntil)
	w.I64(int64(c.FailStreak))
	w.I64(int64(c.GoodStreak))
	w.I64(int64(c.Cooldown))
	w.Bool(c.ChannelBad)
	w.U64(c.RngState)
	w.Bool(c.Belief)
	if c.Belief {
		w.F64s(c.Post)
		w.Bool(c.Predicted)
	}
}

// DecodeCarry reads a Carry written by Encode. Check the reader's error
// before using it; Step.Restore validates it.
func DecodeCarry(r *snapshot.Reader) Carry {
	c := Carry{
		Active:        r.String(),
		EngineUp:      r.Bool(),
		LinkDownUntil: r.F64(),
		FailStreak:    int(r.I64()),
		GoodStreak:    int(r.I64()),
		Cooldown:      int(r.I64()),
		ChannelBad:    r.Bool(),
		RngState:      r.U64(),
	}
	if c.Belief = r.Bool(); c.Belief {
		c.Post = r.F64s()
		c.Predicted = r.Bool()
	}
	return c
}

// Validate rejects values no Step can produce: a CRC-intact but forged
// frame must not poison a resumed pipeline. Whether the posterior fits
// the filter (its length and total mass) only the restoring Step can
// tell.
func (c *Carry) Validate() error {
	switch {
	case c.FailStreak < 0 || c.GoodStreak < 0 || c.Cooldown < 0:
		return errors.New("negative hysteresis counters")
	case math.IsNaN(c.LinkDownUntil) || math.IsInf(c.LinkDownUntil, 0):
		return fmt.Errorf("holdoff %v", c.LinkDownUntil)
	}
	for i, v := range c.Post {
		if err := nonNegative(v); err != nil {
			return fmt.Errorf("posterior bin %d: %v", i, err)
		}
	}
	return nil
}

// State is the complete inter-window carry of one simulation. The
// segmentation invariant — pinned by TestRunStateSegmentedBitwise — is
// that running [0, D) in one RunState call or in any partition of
// segments through a State yields bitwise-identical Results, including
// every float accumulator.
//
// Queued sensor data is not part of the schema: the simulator consumes
// each window within its tick, so a segment boundary never holds
// in-flight windows (the streaming engine documents the same crash-loss
// contract for its mailboxes).
type State struct {
	// Started distinguishes a resumed State from a fresh one; Done marks
	// a completed run (Res is final and further RunState calls no-op).
	Started, Done bool
	// T is the next window's start time; WI the number of windows
	// consumed (the index into the cyclically replayed stream).
	T  float64
	WI int
	// BusyUntil carries an in-flight local inference across the boundary.
	BusyUntil float64
	// Ledger is the per-window tally Step.Complete folded so far.
	Ledger Ledger
	// Res is the result so far: RunState's watch-side accumulators, with
	// the Ledger and Carry mirrored in at every boundary.
	Res Result
	// Carry is the per-window Step's durable state, belief posterior
	// included; Res.ActiveConfig and Res.BeliefBins are read from it.
	Carry Carry
	// HasBattery records whether the run drains a battery;
	// BatteryRemaining is its charge at the boundary.
	HasBattery       bool
	BatteryRemaining power.Energy
}

// capture folds the loop carry back into the state at a segment
// boundary.
func (st *State) capture(cfg *Config, t float64, wi int, busyUntil float64, res *Result, led *Ledger, step *Step) {
	st.Started = true
	st.T = t
	st.WI = wi
	st.BusyUntil = busyUntil
	st.Ledger = *led
	st.Res = *res
	step.Save(&st.Carry)
	st.HasBattery = cfg.Battery != nil
	if cfg.Battery != nil {
		st.BatteryRemaining = cfg.Battery.Remaining()
	}
	st.summarize()
}

// finishRun finalizes the result at completion (normal end or battery
// exhaustion).
func (st *State) finishRun(cfg *Config) {
	if cfg.Battery != nil {
		st.Res.FinalSoC = cfg.Battery.SoC()
	}
	st.Done = true
}

// summarize mirrors the Ledger and the Carry into Res.
func (st *State) summarize() {
	r, l := &st.Res, &st.Ledger
	r.ActiveConfig = st.Carry.Active
	r.Predictions = int(l.Predictions)
	r.SimpleRuns = int(l.SimpleRuns + l.FallbackWindows)
	r.Offloaded = int(l.Offloaded)
	r.LinkDownWindows = int(l.LinkDownWindows)
	r.Reselections = int(l.Reselections)
	r.Watch.Radio = l.RadioEnergy
	r.PhoneEnergy = l.PhoneEnergy
	r.Retries = int(l.Retries)
	r.Timeouts = int(l.Timeouts)
	r.SupervisionDrops = int(l.SupervisionDrops)
	r.FallbackWindows = int(l.FallbackWindows)
	r.DeadlineMisses = int(l.DeadlineMisses)
	r.RetransmitPackets = int(l.RetransmitPackets)
	r.RetransmitEnergy = l.RetransmitEnergy
	r.FaultWindows = int(l.FaultWindows)
	r.GatedOffloads = int(l.GatedWindows)
	r.MAE = l.MAE()
	r.FaultMAE = l.FaultMAE()
	r.BeliefBins = len(st.Carry.Post)
	r.BeliefWidthMean = l.BeliefWidthMean()
	r.BeliefCoverage = l.BeliefCoverage()
}

// floats lists the state's own float accumulators, every one finite and
// non-negative, in codec order.
func (st *State) floats() [10]*float64 {
	r := &st.Res
	return [...]*float64{&st.T, &st.BusyUntil, (*float64)(&st.BatteryRemaining),
		&r.SimulatedSeconds, (*float64)(&r.Watch.Compute), (*float64)(&r.Watch.Idle),
		(*float64)(&r.Watch.Sensors), (*float64)(&r.BatteryDrain), &r.FinalSoC,
		(*float64)(&r.BrownOutEnergy)}
}

// EncodeState serializes st as a CHSS frame bound to configHash (the
// caller's fingerprint of every trajectory-affecting knob — the fleet
// uses its config hash, so a state file from a different fleet
// configuration is rejected as stale). Res is written only where the
// Ledger and the Carry do not already determine it.
func EncodeState(st *State, configHash uint64) []byte {
	w := snapshot.NewWriter(snapshot.KindSimState, configHash)
	w.Bool(st.Started)
	w.Bool(st.Done)
	w.I64(int64(st.WI))
	st.Carry.Encode(w)
	w.Bool(st.HasBattery)
	st.Ledger.Encode(w)
	r := &st.Res
	w.I64(int64(r.SkippedWindows))
	w.Bool(r.BatteryExhausted)
	w.String(r.FaultScenario)
	w.U64(r.FaultSeed)
	for _, p := range st.floats() {
		w.F64(*p)
	}
	return w.Finish()
}

// DecodeState parses and validates a CHSS sim-state frame. Damaged bytes
// return snapshot.ErrCorrupt, a frame from another configuration (or
// kind, or version) snapshot.ErrStale; both degrade to a from-scratch
// simulation at the caller.
func DecodeState(data []byte, configHash uint64) (*State, error) {
	r, err := snapshot.Open(data, snapshot.KindSimState, configHash)
	if err != nil {
		return nil, err
	}
	st := &State{}
	st.Started = r.Bool()
	st.Done = r.Bool()
	st.WI = int(r.I64())
	st.Carry = DecodeCarry(r)
	st.HasBattery = r.Bool()
	st.Ledger = DecodeLedger(r)
	res := &st.Res
	res.SkippedWindows = int(r.I64())
	res.BatteryExhausted = r.Bool()
	res.FaultScenario = r.String()
	res.FaultSeed = r.U64()
	for _, p := range st.floats() {
		*p = r.F64()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	st.summarize()
	return st, nil
}

// validate rejects decoded states whose fields are structurally
// impossible: a CRC-intact but forged (or schema-confused) frame must not
// poison a resumed run.
func (st *State) validate() error {
	for i, p := range st.floats() {
		if err := nonNegative(*p); err != nil {
			return fmt.Errorf("sim state: accumulator %d: %v", i, err)
		}
	}
	if err := st.Ledger.Validate(); err != nil {
		return fmt.Errorf("sim state: %v", err)
	}
	if err := st.Carry.Validate(); err != nil {
		return fmt.Errorf("sim state: %v", err)
	}
	switch {
	case st.WI < 0 || st.Res.SkippedWindows < 0:
		return fmt.Errorf("sim state: negative window count (WI=%d, skipped=%d)", st.WI, st.Res.SkippedWindows)
	case st.Started && st.Carry.Active == "":
		return fmt.Errorf("sim state: started without an active configuration")
	}
	return nil
}
