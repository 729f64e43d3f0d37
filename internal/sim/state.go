package sim

import (
	"errors"
	"fmt"
	"math"

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
	// Res holds the accumulators folded so far. MAE/FaultMAE and the
	// belief summary fields are only computed at completion.
	Res Result
	// AbsErrSum/FaultAbsErrSum are the MAE numerators.
	AbsErrSum, FaultAbsErrSum float64
	// Proto is the per-window Step's carry.
	Proto ProtoState
	// ActiveConfig names the currently selected configuration.
	ActiveConfig string
	// HasBattery records whether the run drains a battery;
	// BatteryRemaining is its charge at the boundary.
	HasBattery       bool
	BatteryRemaining power.Energy
	// HasBelief records whether the belief filter runs; the fields below
	// it carry the posterior and the observation counters.
	HasBelief       bool
	BeliefPost      []float64
	BeliefPredicted bool
	BeliefGated     int
	BeliefObserved  int
	BeliefCovered   int
	BeliefWidthSum  float64
}

// capture folds the loop carry back into the state at a segment
// boundary.
func (st *State) capture(cfg *Config, t float64, wi int, busyUntil, absErrSum, faultAbsErrSum float64, res *Result, bs *beliefState, step *Step) {
	st.Started = true
	st.T = t
	st.WI = wi
	st.BusyUntil = busyUntil
	st.AbsErrSum = absErrSum
	st.FaultAbsErrSum = faultAbsErrSum
	st.Res = *res
	st.ActiveConfig = res.ActiveConfig
	st.Proto = step.State()
	st.HasBattery = cfg.Battery != nil
	if cfg.Battery != nil {
		st.BatteryRemaining = cfg.Battery.Remaining()
	}
	st.HasBelief = bs != nil
	if bs != nil {
		st.BeliefPost, st.BeliefPredicted = bs.f.Snapshot(st.BeliefPost)
		st.BeliefGated = bs.gated
		st.BeliefObserved = bs.observed
		st.BeliefCovered = bs.covered
		st.BeliefWidthSum = bs.widthSum
	}
}

// finishRun finalizes the result at completion (normal end or battery
// exhaustion): the derived summary fields are computed exactly once.
func (st *State) finishRun(cfg *Config, bs *beliefState) {
	if cfg.Battery != nil {
		st.Res.FinalSoC = cfg.Battery.SoC()
	}
	if bs != nil {
		bs.fold(&st.Res)
	}
	st.Res.finish(st.AbsErrSum, st.FaultAbsErrSum)
	st.Done = true
}

// restoreBelief rebuilds the belief wiring for a segment: the filter and
// RMS table are reconstructed (both pure functions of the config), then a
// resumed posterior and the observation counters are installed exactly.
func restoreBelief(cfg *Config, st *State) (*beliefState, error) {
	if cfg.Belief == nil {
		return nil, nil
	}
	bs, err := newBeliefState(cfg)
	if err != nil {
		return nil, err
	}
	if st.Started {
		if err := bs.f.Restore(st.BeliefPost, st.BeliefPredicted); err != nil {
			return nil, fmt.Errorf("sim: resume: %w", err)
		}
		bs.gated = st.BeliefGated
		bs.observed = st.BeliefObserved
		bs.covered = st.BeliefCovered
		bs.widthSum = st.BeliefWidthSum
	}
	return bs, nil
}

// EncodeState serializes st as a CHSS frame bound to configHash (the
// caller's fingerprint of every trajectory-affecting knob — the fleet
// uses its config hash, so a state file from a different fleet
// configuration is rejected as stale).
func EncodeState(st *State, configHash uint64) []byte {
	w := snapshot.NewWriter(snapshot.KindSimState, configHash)
	w.Bool(st.Started)
	w.Bool(st.Done)
	w.F64(st.T)
	w.I64(int64(st.WI))
	w.F64(st.BusyUntil)
	w.F64(st.AbsErrSum)
	w.F64(st.FaultAbsErrSum)
	st.Proto.Encode(w)
	w.String(st.ActiveConfig)
	w.Bool(st.HasBattery)
	w.F64(float64(st.BatteryRemaining))
	w.Bool(st.HasBelief)
	w.F64s(st.BeliefPost)
	w.Bool(st.BeliefPredicted)
	w.I64(int64(st.BeliefGated))
	w.I64(int64(st.BeliefObserved))
	w.I64(int64(st.BeliefCovered))
	w.F64(st.BeliefWidthSum)
	encodeResult(w, &st.Res)
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
	st.T = r.F64()
	st.WI = int(r.I64())
	st.BusyUntil = r.F64()
	st.AbsErrSum = r.F64()
	st.FaultAbsErrSum = r.F64()
	st.Proto = DecodeProtoState(r)
	st.ActiveConfig = r.String()
	st.HasBattery = r.Bool()
	st.BatteryRemaining = power.Energy(r.F64())
	st.HasBelief = r.Bool()
	st.BeliefPost = r.F64s()
	st.BeliefPredicted = r.Bool()
	st.BeliefGated = int(r.I64())
	st.BeliefObserved = int(r.I64())
	st.BeliefCovered = int(r.I64())
	st.BeliefWidthSum = r.F64()
	decodeResult(r, &st.Res)
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	return st, nil
}

// validate rejects decoded states whose fields are structurally
// impossible: a CRC-intact but forged (or schema-confused) frame must not
// poison a resumed run.
func (st *State) validate() error {
	fin := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sim state: %s is %v", name, v)
		}
		return nil
	}
	for name, v := range map[string]float64{
		"T": st.T, "BusyUntil": st.BusyUntil, "AbsErrSum": st.AbsErrSum,
		"FaultAbsErrSum":   st.FaultAbsErrSum,
		"BatteryRemaining": float64(st.BatteryRemaining), "BeliefWidthSum": st.BeliefWidthSum,
	} {
		if err := fin(name, v); err != nil {
			return err
		}
	}
	if err := st.Proto.Validate(); err != nil {
		return fmt.Errorf("sim state: %v", err)
	}
	switch {
	case st.T < 0 || st.WI < 0:
		return fmt.Errorf("sim state: negative progress (T=%v, WI=%d)", st.T, st.WI)
	case st.BeliefGated < 0 || st.BeliefObserved < 0 || st.BeliefCovered < 0:
		return fmt.Errorf("sim state: negative belief counters")
	case st.HasBelief != (len(st.BeliefPost) > 0):
		return fmt.Errorf("sim state: belief flag and posterior disagree")
	case st.Started && st.ActiveConfig == "":
		return fmt.Errorf("sim state: started without an active configuration")
	}
	return nil
}

func encodeResult(w *snapshot.Writer, r *Result) {
	w.F64(r.SimulatedSeconds)
	w.I64(int64(r.Predictions))
	w.I64(int64(r.SimpleRuns))
	w.I64(int64(r.Offloaded))
	w.I64(int64(r.SkippedWindows))
	w.I64(int64(r.LinkDownWindows))
	w.I64(int64(r.Reselections))
	w.F64(r.MAE)
	w.F64(float64(r.Watch.Compute))
	w.F64(float64(r.Watch.Radio))
	w.F64(float64(r.Watch.Idle))
	w.F64(float64(r.Watch.Sensors))
	w.F64(float64(r.PhoneEnergy))
	w.F64(float64(r.BatteryDrain))
	w.Bool(r.BatteryExhausted)
	w.F64(r.FinalSoC)
	w.String(r.ActiveConfig)
	w.String(r.FaultScenario)
	w.U64(r.FaultSeed)
	w.I64(int64(r.Retries))
	w.I64(int64(r.Timeouts))
	w.I64(int64(r.SupervisionDrops))
	w.I64(int64(r.FallbackWindows))
	w.I64(int64(r.DeadlineMisses))
	w.I64(int64(r.RetransmitPackets))
	w.F64(float64(r.RetransmitEnergy))
	w.F64(float64(r.BrownOutEnergy))
	w.I64(int64(r.FaultWindows))
	w.F64(r.FaultMAE)
	w.I64(int64(r.BeliefBins))
	w.I64(int64(r.GatedOffloads))
	w.F64(r.BeliefWidthMean)
	w.F64(r.BeliefCoverage)
}

func decodeResult(rd *snapshot.Reader, r *Result) {
	r.SimulatedSeconds = rd.F64()
	r.Predictions = int(rd.I64())
	r.SimpleRuns = int(rd.I64())
	r.Offloaded = int(rd.I64())
	r.SkippedWindows = int(rd.I64())
	r.LinkDownWindows = int(rd.I64())
	r.Reselections = int(rd.I64())
	r.MAE = rd.F64()
	r.Watch.Compute = power.Energy(rd.F64())
	r.Watch.Radio = power.Energy(rd.F64())
	r.Watch.Idle = power.Energy(rd.F64())
	r.Watch.Sensors = power.Energy(rd.F64())
	r.PhoneEnergy = power.Energy(rd.F64())
	r.BatteryDrain = power.Energy(rd.F64())
	r.BatteryExhausted = rd.Bool()
	r.FinalSoC = rd.F64()
	r.ActiveConfig = rd.String()
	r.FaultScenario = rd.String()
	r.FaultSeed = rd.U64()
	r.Retries = int(rd.I64())
	r.Timeouts = int(rd.I64())
	r.SupervisionDrops = int(rd.I64())
	r.FallbackWindows = int(rd.I64())
	r.DeadlineMisses = int(rd.I64())
	r.RetransmitPackets = int(rd.I64())
	r.RetransmitEnergy = power.Energy(rd.F64())
	r.BrownOutEnergy = power.Energy(rd.F64())
	r.FaultWindows = int(rd.I64())
	r.FaultMAE = rd.F64()
	r.BeliefBins = int(rd.I64())
	r.GatedOffloads = int(rd.I64())
	r.BeliefWidthMean = rd.F64()
	r.BeliefCoverage = rd.F64()
}
