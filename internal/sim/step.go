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
	"repro/internal/snapshot"
)

// Step is one stream's per-window offload pipeline: the link check, the
// belief-gated dispatch, the offload protocol with graceful degradation
// to the configuration's simple model, and configuration reselection
// (§III-B) in Window; the belief update and the window's tally in
// Complete. RunState drives it from the offline tick loop and
// serve.Session drives it for every window, so the simulator and the
// streaming engine share one implementation of the decision and of its
// accounting. The Step owns the stream's belief filter, and Save and
// Restore carry its whole durable state across a segment boundary or a
// crash as one Carry.
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

	// pol and bf are the stream's belief policy and filter (nil without
	// one). The uncertainty gate reads bf's predictive width; gate is
	// inert unless the policy sets GateBPM.
	pol  *belief.Policy
	bf   *belief.Filter
	gate core.UncertaintyGate

	current     core.Profile
	currentName string
	// cost holds the per-inference costs of the active configuration's
	// simple (index 0) and complex (index 1) model.
	cost [2]hw.Cost
	// SelectConfig is a pure function of the profiles and the constraint,
	// so both reselection targets (index 1: link up), their names and
	// their model costs are computed once.
	target     [2]core.Profile
	targetName [2]string
	targetCost [2][2]hw.Cost
	targetErr  [2]error

	engineUp                         bool
	linkDownUntil                    float64
	failStreak, goodStreak, cooldown int
}

// NewStep wires the pipeline for one stream under DefaultProtocol(). A
// nil inj selects the paper engine (see Step). A non-nil pol gives the
// stream a filter over pol.Table (uniform prior) that Complete updates
// and Window's uncertainty gate reads; the error reports a table no
// filter runs on. Call Start or Restore first. The Step keeps the model
// costs sys resolves now (hw.System documents that its tables stay fixed
// from here on).
func NewStep(sys *hw.System, eng *core.Engine, c core.Constraint,
	inj *faults.Injector, pol *belief.Policy) (*Step, error) {

	proto := DefaultProtocol()
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
	if pol != nil {
		bf, err := belief.NewFilter(pol.Table)
		if err != nil {
			return nil, fmt.Errorf("sim: belief filter: %w", err)
		}
		s.pol, s.bf, s.gate = pol, bf, core.UncertaintyGate{MaxWidth: pol.GateBPM}
	}
	for i, up := range [2]bool{false, true} {
		if s.target[i], s.targetErr[i] = eng.SelectConfig(up, c); s.targetErr[i] == nil {
			s.targetName[i] = s.target[i].Name()
			s.targetCost[i] = configCost(sys, &s.target[i])
		}
	}
	return s, nil
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
// and hysteresis counters are cleared. The random stream and the belief
// filter keep their state — a restart heals the pipeline, it does not
// rewind the faults or the stream's history.
func (s *Step) Start(t float64) error {
	s.ch = ble.Channel{}
	s.linkDownUntil = 0
	s.failStreak, s.goodStreak, s.cooldown = 0, 0, 0
	if err := s.reselect(s.linkUp(t)); err != nil {
		return fmt.Errorf("sim: initial selection: %w", err)
	}
	return nil
}

// Save writes the pipeline's durable state into c, reusing c.Post's
// storage for the belief posterior.
func (s *Step) Save(c *Carry) {
	*c = Carry{
		Active:        s.currentName,
		EngineUp:      s.engineUp,
		LinkDownUntil: s.linkDownUntil,
		FailStreak:    s.failStreak,
		GoodStreak:    s.goodStreak,
		Cooldown:      s.cooldown,
		ChannelBad:    s.ch.Bad(),
		Post:          c.Post[:0],
	}
	if s.rng != nil {
		c.RngState = s.rng.State()
	}
	if s.bf != nil {
		c.Belief = true
		c.Post, c.Predicted = s.bf.Snapshot(c.Post)
	}
}

// Restore installs a carry written by Save, rebinding the active
// configuration by name and the posterior bit for bit. An unknown
// configuration or a belief filter on one side only is
// snapshot.ErrStale; impossible values, a posterior that does not fit
// the filter among them, are snapshot.ErrCorrupt. On error the Step is
// unchanged.
func (s *Step) Restore(c *Carry) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("%w: carry: %v", snapshot.ErrCorrupt, err)
	}
	if c.Belief != (s.bf != nil) {
		return fmt.Errorf("%w: carry belief presence %v does not match the policy", snapshot.ErrStale, c.Belief)
	}
	cur, ok := s.eng.ProfileByName(c.Active)
	if !ok {
		return fmt.Errorf("%w: configuration %q not in engine", snapshot.ErrStale, c.Active)
	}
	if s.bf != nil {
		if err := s.bf.Restore(c.Post, c.Predicted); err != nil {
			return fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
		}
	}
	s.current, s.currentName = cur, c.Active
	s.cost = configCost(s.sys, &cur)
	s.engineUp = c.EngineUp
	s.linkDownUntil = c.LinkDownUntil
	s.failStreak, s.goodStreak, s.cooldown = c.FailStreak, c.GoodStreak, c.Cooldown
	s.ch.SetBad(c.ChannelBad)
	if s.rng != nil {
		s.rng.Restore(c.RngState)
	}
	return nil
}

// Current returns the active configuration.
func (s *Step) Current() core.Profile { return s.current }

// ActiveConfig returns the active configuration's name.
func (s *Step) ActiveConfig() string { return s.currentName }

// Route is one window's verdict from Step.Window.
type Route struct {
	// Down reports that the offload link was unusable at the window's
	// arrival. A window that never reached Window (the zero Route) was
	// not checked, so it is not Down.
	Down bool
	// Reselected reports a configuration switch during this window;
	// Step.Current and Step.ActiveConfig return the new configuration.
	Reselected bool
	// Dispatched is the model the dispatcher chose; the phone computes it
	// when Attempted. Model produces the window's estimate: Dispatched,
	// or the configuration's simple model when the window fell back.
	// Both are nil when the window was not dispatched.
	Dispatched, Model models.HREstimator
	// Cost and DispatchedCost are the per-inference costs of Model and
	// Dispatched, resolved when the configuration was selected (zero when
	// the window was not dispatched).
	Cost, DispatchedCost hw.Cost
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
	up := s.linkUp(t)
	*r = Route{Down: !up}
	if s.inj == nil && up != s.engineUp {
		// Paper engine: reselect at the link edge, before dispatch.
		if err := s.reselect(up); err != nil {
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
		c := core.Confidence{Width: s.bf.PredictiveWidth(s.pol.Mass)}
		d, r.Gated = s.eng.DispatchGated(&s.current, w, s.gate, c)
	} else {
		d = s.eng.Dispatch(&s.current, w)
	}
	r.Dispatched, r.Model, r.Difficulty = d.Model, d.Model, d.Difficulty
	// An offloaded decision is always the complex model; otherwise the
	// name tells the two apart (a zoo's names are unique).
	r.DispatchedCost = s.cost[1]
	switch {
	case d.Offloaded && !r.Down:
		r.Attempted = true
		if s.inj == nil {
			r.Offload = s.lossless
		} else {
			r.Offload = s.proto.ResolveOffload(s.sys, s.inj, &s.ch, s.rng, r.DispatchedCost.PhoneSeconds, t, s.deadline)
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
		if r.Simple = d.Model.Name() == s.current.Simple.Name(); r.Simple {
			r.DispatchedCost = s.cost[0]
		}
	}
	r.Cost = r.DispatchedCost
	if r.Fallback {
		r.Model, r.Cost = s.current.Simple, s.cost[0]
		r.Fault = true
	}
}

// Complete folds one window's outcome into l and runs the belief update.
// r is the route from Window (zero if the window never reached it), hr
// the estimate, trueHR its label and rms its motion RMS (read only by
// the belief filter).
// A discarded window (skipped, expired, late or panicked) still folds
// its route, including the offload's spent energy, and coasts the
// filter; any other is counted as a prediction and fused into the
// posterior. Complete returns the HR to report (the posterior mean when
// the policy smooths) and the credible-interval width after fusion.
func (s *Step) Complete(l *Ledger, r *Route, hr, trueHR, rms float64, discarded bool) (report, width float64) {
	if r.Reselected {
		l.Reselections++
	}
	if r.Down {
		l.LinkDownWindows++
	}
	if r.Gated {
		l.GatedWindows++
	}
	if r.Attempted {
		out := &r.Offload
		l.RadioEnergy += out.RadioEnergy
		l.RetransmitPackets += uint64(out.RetransmitPackets)
		l.RetransmitEnergy += out.RetransmitEnergy
		l.Retries += uint64(out.Retries)
		l.Timeouts += uint64(out.Timeouts)
		for i := 0; i < out.PhoneComputes; i++ {
			l.PhoneEnergy += r.DispatchedCost.PhoneEnergy
		}
		if out.SupervisionDrop {
			l.SupervisionDrops++
		}
	}
	if discarded {
		if s.bf != nil {
			// Time still passes for the hidden chain.
			s.bf.Coast()
		}
		return hr, 0
	}
	l.Predictions++
	switch {
	case r.Offloaded:
		l.Offloaded++
	case r.Simple:
		l.SimpleRuns++
	case r.Fallback:
		l.FallbackWindows++
		if r.Attempted {
			l.DeadlineMisses++
		}
	}
	if s.bf != nil {
		s.bf.ObserveGaussian(hr, s.pol.Sigma(r.Model.Name(), rms))
		var covered bool
		width, covered = s.bf.Credible(s.pol.Mass, trueHR)
		l.BeliefWidthSum += width
		if covered {
			l.BeliefCovered++
		}
		if s.pol.Smooth {
			hr = s.bf.Mean()
		}
	}
	e := models.AbsError(hr, trueHR)
	l.AbsErrSum += e
	if r.Fault {
		l.FaultWindows++
		l.FaultAbsErrSum += e
	}
	return hr, width
}

// configCost resolves the per-inference costs of p's simple and complex
// model.
func configCost(sys *hw.System, p *core.Profile) [2]hw.Cost {
	return [2]hw.Cost{sys.Cost(p.Simple), sys.Cost(p.Complex)}
}

// hysteresis is the injected pipeline's reselection damper: the engine
// leaves hybrid configurations only after FailWindows consecutive
// degraded or down windows, returns after RecoverWindows healthy ones,
// and holds still through the cooldown after any switch.
func (s *Step) hysteresis(t float64, r *Route) error {
	if !r.Down && !r.Fault {
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
	s.current, s.currentName, s.cost = s.target[i], s.targetName[i], s.targetCost[i]
	s.engineUp = up
	return nil
}
