package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/belief"
	"repro/internal/hw/power"
	"repro/internal/snapshot"
)

// ProtoState is the serializable carry of a Step: everything the
// per-window pipeline remembers between windows besides the active
// configuration and the result accumulators. RunState saves it in State
// and serve.Session persists the same fields per session, so one schema
// covers both the offline simulator and the streaming engine.
type ProtoState struct {
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
}

// Encode appends p to a CHSS payload; the sim-state and serve session
// frames both carry it in this field order.
func (p ProtoState) Encode(w *snapshot.Writer) {
	w.Bool(p.EngineUp)
	w.F64(p.LinkDownUntil)
	w.I64(int64(p.FailStreak))
	w.I64(int64(p.GoodStreak))
	w.I64(int64(p.Cooldown))
	w.Bool(p.ChannelBad)
	w.U64(p.RngState)
}

// DecodeProtoState reads a ProtoState written by Encode. Check the
// reader's error, then Validate, before using it.
func DecodeProtoState(r *snapshot.Reader) ProtoState {
	return ProtoState{
		EngineUp:      r.Bool(),
		LinkDownUntil: r.F64(),
		FailStreak:    int(r.I64()),
		GoodStreak:    int(r.I64()),
		Cooldown:      int(r.I64()),
		ChannelBad:    r.Bool(),
		RngState:      r.U64(),
	}
}

// Validate rejects values no Step can produce: a CRC-intact but forged
// frame must not poison a resumed pipeline.
func (p ProtoState) Validate() error {
	switch {
	case p.FailStreak < 0 || p.GoodStreak < 0 || p.Cooldown < 0:
		return errors.New("negative hysteresis counters")
	case math.IsNaN(p.LinkDownUntil) || math.IsInf(p.LinkDownUntil, 0):
		return fmt.Errorf("holdoff %v", p.LinkDownUntil)
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
	// the Ledger mirrored in at every boundary.
	Res Result
	// Proto is the per-window Step's carry; Res.ActiveConfig names the
	// configuration that goes with it.
	Proto ProtoState
	// HasBattery records whether the run drains a battery;
	// BatteryRemaining is its charge at the boundary.
	HasBattery       bool
	BatteryRemaining power.Energy
	// BeliefPost and BeliefPredicted carry the belief filter's posterior;
	// BeliefPost is empty when the run has no filter.
	BeliefPost      []float64
	BeliefPredicted bool
}

// capture folds the loop carry back into the state at a segment
// boundary.
func (st *State) capture(cfg *Config, t float64, wi int, busyUntil float64, res *Result, led *Ledger, bf *belief.Filter, step *Step) {
	st.Started = true
	st.T = t
	st.WI = wi
	st.BusyUntil = busyUntil
	st.Ledger = *led
	st.Res = *res
	st.Res.ActiveConfig = step.ActiveConfig()
	st.Proto = step.State()
	st.HasBattery = cfg.Battery != nil
	if cfg.Battery != nil {
		st.BatteryRemaining = cfg.Battery.Remaining()
	}
	if bf != nil {
		st.BeliefPost, st.BeliefPredicted = bf.Snapshot(st.BeliefPost)
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

// summarize mirrors the Ledger into Res.
func (st *State) summarize() {
	r, l := &st.Res, &st.Ledger
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
	r.BeliefBins = len(st.BeliefPost)
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
// Ledger does not already determine it.
func EncodeState(st *State, configHash uint64) []byte {
	w := snapshot.NewWriter(snapshot.KindSimState, configHash)
	w.Bool(st.Started)
	w.Bool(st.Done)
	w.I64(int64(st.WI))
	st.Proto.Encode(w)
	w.Bool(st.HasBattery)
	w.F64s(st.BeliefPost)
	w.Bool(st.BeliefPredicted)
	st.Ledger.Encode(w)
	r := &st.Res
	w.String(r.ActiveConfig)
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
	st.Proto = DecodeProtoState(r)
	st.HasBattery = r.Bool()
	st.BeliefPost = r.F64s()
	st.BeliefPredicted = r.Bool()
	st.Ledger = DecodeLedger(r)
	res := &st.Res
	res.ActiveConfig = r.String()
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
	if err := st.Proto.Validate(); err != nil {
		return fmt.Errorf("sim state: %v", err)
	}
	switch {
	case st.WI < 0 || st.Res.SkippedWindows < 0:
		return fmt.Errorf("sim state: negative window count (WI=%d, skipped=%d)", st.WI, st.Res.SkippedWindows)
	case st.Started && st.Res.ActiveConfig == "":
		return fmt.Errorf("sim state: started without an active configuration")
	}
	return nil
}
