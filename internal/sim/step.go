package sim

import (
	"fmt"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/hw/ble"
	"repro/internal/models"
)

// Step is one stream's per-window offload pipeline: the link check, the
// belief-gated dispatch, the offload protocol with graceful degradation
// to the configuration's simple model, and configuration reselection
// (§III-B). RunState drives it from the offline tick loop and
// serve.Session drives it for every routed window, so the simulator and
// the streaming engine share one implementation of the decision.
//
// The injector selects the engine's semantics in exactly two places.
// With a nil injector the Step is the paper's engine: it reselects the
// moment the link changes state, before dispatching the window, and
// every transfer is lossless and answered in time. With an injector,
// transfers run the lossy retry/timeout protocol (Protocol.ResolveOffload)
// and reselection waits for the hysteresis thresholds of Protocol. The
// faults.None scenario therefore reproduces the paper engine only on a
// link that never drops: its transfers still honour the per-attempt
// timeout, and its reselection still waits out the hysteresis.
//
// A Step is not safe for concurrent use.
type Step struct {
	sys      *hw.System
	eng      *core.Engine
	proto    Protocol
	deadline float64 // offload budget per window: DeadlineFraction × period
	inj      *faults.Injector
	rng      *faults.Rand
	ch       ble.Channel
	lossless OffloadOutcome // the nil injector's transfer

	// The uncertainty gate reads bf's predictive width; gate is inert
	// unless the belief policy sets GateBPM.
	bf   *belief.Filter
	gate core.UncertaintyGate
	mass float64

	current     core.Profile
	currentName string
	// SelectConfig is a pure function of the profiles and the constraint,
	// so both reselection targets (index 1: link up) and their names are
	// computed once.
	target     [2]core.Profile
	targetName [2]string
	targetErr  [2]error

	engineUp                         bool
	linkDownUntil                    float64
	failStreak, goodStreak, cooldown int
}

// NewStep wires the pipeline for one stream. A zero proto means
// DefaultProtocol(); a nil inj selects the paper engine (see Step).
// bf is the stream's belief filter; it is consulted only when pol sets
// an uncertainty gate. Call Start or Resume before the first Window.
func NewStep(sys *hw.System, eng *core.Engine, c core.Constraint, proto Protocol,
	inj *faults.Injector, pol *belief.Policy, bf *belief.Filter) *Step {

	proto = proto.Resolved()
	s := &Step{
		sys:      sys,
		eng:      eng,
		proto:    proto,
		deadline: proto.DeadlineFraction * sys.PeriodSeconds,
		inj:      inj,
		lossless: OffloadOutcome{
			Success:       true,
			Busy:          sys.Link.TransmitSeconds(ble.WindowBytes),
			RadioEnergy:   sys.Link.WindowTransmitEnergy(),
			PhoneComputes: 1,
		},
	}
	if inj != nil {
		s.rng = inj.Rand()
	}
	if pol != nil && pol.GateBPM > 0 {
		s.bf, s.gate, s.mass = bf, core.UncertaintyGate{MaxWidth: pol.GateBPM}, pol.Mass
	}
	for i, up := range [2]bool{false, true} {
		if s.target[i], s.targetErr[i] = eng.SelectConfig(up, c); s.targetErr[i] == nil {
			s.targetName[i] = s.target[i].Name()
		}
	}
	return s
}

// Resolved returns p, or DefaultProtocol() when p is the zero value.
func (p Protocol) Resolved() Protocol {
	if p == (Protocol{}) {
		return DefaultProtocol()
	}
	return p
}

// Feasible reports whether the constraint selects a configuration in
// both link states, so no reselection can ever fail.
func (s *Step) Feasible() error {
	for _, err := range s.targetErr {
		if err != nil {
			return err
		}
	}
	return nil
}

// Start (re)initializes the pipeline at time t: the configuration is
// selected for the link state at t, and the channel, reconnect holdoff
// and hysteresis counters are cleared. The random stream keeps its
// position — a restart heals the pipeline, it does not rewind the faults.
func (s *Step) Start(t float64) error {
	s.ch = ble.Channel{}
	s.linkDownUntil = 0
	s.failStreak, s.goodStreak, s.cooldown = 0, 0, 0
	if err := s.reselect(s.linkUp(t)); err != nil {
		return fmt.Errorf("sim: initial selection: %w", err)
	}
	return nil
}

// Resume restores a pipeline saved by State, rebinding the active
// configuration by name.
func (s *Step) Resume(active string, p ProtoState) error {
	cur, ok := s.eng.ProfileByName(active)
	if !ok {
		return fmt.Errorf("configuration %q not in engine", active)
	}
	s.current, s.currentName = cur, active
	s.engineUp = p.EngineUp
	s.linkDownUntil = p.LinkDownUntil
	s.failStreak, s.goodStreak, s.cooldown = p.FailStreak, p.GoodStreak, p.Cooldown
	s.ch.SetBad(p.ChannelBad)
	if s.rng != nil {
		s.rng.Restore(p.RngState)
	}
	return nil
}

// State returns the serializable carry of the pipeline; ActiveConfig
// names the configuration that goes with it.
func (s *Step) State() ProtoState {
	p := ProtoState{
		EngineUp:      s.engineUp,
		LinkDownUntil: s.linkDownUntil,
		FailStreak:    s.failStreak,
		GoodStreak:    s.goodStreak,
		Cooldown:      s.cooldown,
		ChannelBad:    s.ch.Bad(),
	}
	if s.rng != nil {
		p.RngState = s.rng.State()
	}
	return p
}

// Current returns the active configuration.
func (s *Step) Current() core.Profile { return s.current }

// ActiveConfig returns the active configuration's name.
func (s *Step) ActiveConfig() string { return s.currentName }

// Route is one window's verdict from Step.Window.
type Route struct {
	// Up reports whether the offload link was usable at the window's
	// arrival.
	Up bool
	// Reselected reports a configuration switch during this window;
	// Step.Current and Step.ActiveConfig return the new configuration.
	Reselected bool
	// Dispatched is the model the dispatcher chose; the phone computes it
	// when Attempted. Model produces the window's estimate: Dispatched,
	// or the configuration's simple model when the window fell back.
	// Both are nil when the window was not dispatched.
	Dispatched, Model models.HREstimator
	// Difficulty is the detector's activity rank.
	Difficulty int
	// Gated reports an offload demoted by the uncertainty gate.
	Gated bool
	// Simple reports a healthy local run of the simple model.
	Simple bool
	// Offloaded reports an estimate that came back from the phone in time.
	Offloaded bool
	// Attempted reports that the offload protocol ran; Offload is its
	// outcome (zero otherwise).
	Attempted bool
	Offload   OffloadOutcome
	// Fallback reports a window degraded to the simple model: the offload
	// failed or the link was down.
	Fallback bool
	// Fault reports a window touched by a fault: loss, retry, timeout,
	// supervision drop or fallback.
	Fault bool
}

// Window routes one window arriving at t into r. With dispatch false —
// the watch MCU is still busy with an earlier window — the link is
// checked and reselection runs, but nothing is dispatched. An error
// reports a reselection into a link state in which no configuration
// meets the constraint.
func (s *Step) Window(r *Route, t float64, w *dalia.Window, dispatch bool) error {
	*r = Route{Up: s.linkUp(t)}
	if s.inj == nil && r.Up != s.engineUp {
		// Paper engine: reselect at the link edge, before dispatch.
		if err := s.reselect(r.Up); err != nil {
			return fmt.Errorf("sim: re-selection at t=%.1f: %w", t, err)
		}
		r.Reselected = true
	}
	if dispatch {
		s.dispatch(t, w, r)
	}
	if s.inj != nil {
		return s.hysteresis(t, r)
	}
	return nil
}

// linkUp reports whether the offload link is usable at t: past any
// reconnect holdoff, the link up, and no injected flap.
func (s *Step) linkUp(t float64) bool {
	return t >= s.linkDownUntil && s.sys.Link.ConnectedAt(t) && (s.inj == nil || !s.inj.ForcedDown(t))
}

// dispatch runs the gated dispatch and the offload protocol for one
// window.
func (s *Step) dispatch(t float64, w *dalia.Window, r *Route) {
	var d core.Decision
	if s.gate.Active() {
		c := core.Confidence{Width: s.bf.PredictiveWidth(s.mass)}
		d, r.Gated = s.eng.DispatchGated(&s.current, w, s.gate, c)
	} else {
		d = s.eng.Dispatch(&s.current, w)
	}
	r.Dispatched, r.Model, r.Difficulty = d.Model, d.Model, d.Difficulty
	switch {
	case d.Offloaded && r.Up:
		r.Attempted = true
		if s.inj == nil {
			r.Offload = s.lossless
		} else {
			r.Offload = s.proto.ResolveOffload(s.sys, s.inj, &s.ch, s.rng, d.Model, t, s.deadline)
			if r.Offload.SupervisionDrop {
				s.linkDownUntil = t + s.proto.ReconnectSeconds
			}
		}
		r.Offloaded = r.Offload.Success
		r.Fallback = !r.Offload.Success
		r.Fault = r.Offload.Fault
	case d.Offloaded:
		// The stack knows the link is down: nothing is transmitted.
		r.Fallback = true
	default:
		r.Simple = d.Model.Name() == s.current.Simple.Name()
	}
	if r.Fallback {
		r.Model = s.current.Simple
		r.Fault = true
	}
}

// hysteresis is the injected pipeline's reselection damper: the engine
// leaves hybrid configurations only after FailWindows consecutive
// degraded or down windows, returns after RecoverWindows healthy ones,
// and holds still through the cooldown after any switch.
func (s *Step) hysteresis(t float64, r *Route) error {
	if r.Up && !r.Fault {
		s.goodStreak++
		s.failStreak = 0
	} else {
		s.failStreak++
		s.goodStreak = 0
	}
	switch {
	case s.cooldown > 0:
		s.cooldown--
		return nil
	case s.engineUp && s.failStreak >= s.proto.FailWindows:
		if err := s.reselect(false); err != nil {
			return fmt.Errorf("sim: degraded re-selection at t=%.1f: %w", t, err)
		}
		s.failStreak = 0
	case !s.engineUp && s.goodStreak >= s.proto.RecoverWindows:
		if err := s.reselect(true); err != nil {
			return fmt.Errorf("sim: recovery re-selection at t=%.1f: %w", t, err)
		}
		s.goodStreak = 0
	default:
		return nil
	}
	s.cooldown = s.proto.CooldownWindows
	r.Reselected = true
	return nil
}

// reselect switches to the configuration selected for the link state up.
func (s *Step) reselect(up bool) error {
	i := 0
	if up {
		i = 1
	}
	if err := s.targetErr[i]; err != nil {
		return err
	}
	s.current, s.currentName = s.target[i], s.targetName[i]
	s.engineUp = up
	return nil
}
