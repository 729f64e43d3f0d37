package sim

import (
	"fmt"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/hw/ble"
	"repro/internal/hw/power"
	"repro/internal/snapshot"
)

// Config describes one simulation scenario.
type Config struct {
	System     *hw.System
	Engine     *core.Engine
	Constraint core.Constraint
	// Trace drives the BLE link state; nil keeps the link up. The trace
	// is attached to System.Link for the duration of the run, so all
	// connectivity decisions flow through Link.ConnectedAt (see the
	// precedence rule in ble/link.go).
	Trace *ble.ConnectivityTrace
	// Windows are replayed cyclically as the sensor stream.
	Windows []dalia.Window
	// DurationSeconds is the simulated wall-clock horizon.
	DurationSeconds float64
	// Battery, when non-nil, is drained through the converter; the
	// simulation stops early at exhaustion.
	Battery *power.Battery
	// IncludeSensors charges the PPG/IMU front end to the watch budget.
	IncludeSensors bool
	// Faults, when non-nil, turns on the lossy-link machinery: per-packet
	// Gilbert–Elliott loss with retransmissions and supervision timeouts,
	// the offload deadline/retry/backoff protocol with graceful
	// degradation to the watch-side model, reselection hysteresis, phone
	// latency spikes/unavailability and battery brown-outs. A nil Faults
	// runs the paper engine: lossless transfers and immediate
	// reselection at every link edge (see Step). The faults.None scenario
	// matches it bitwise only on a link that never drops.
	Faults *faults.Injector
	// Protocol tunes the offload state machine; the zero value means
	// DefaultProtocol(). Only consulted when Faults is non-nil.
	Protocol Protocol
	// Belief, when non-nil, runs the temporal belief filter over the HR
	// stream: each estimate is fused into a posterior over HR bins,
	// optionally replacing the reported HR with the posterior mean
	// (Policy.Smooth) and demoting offloads the uncertainty gate deems
	// unnecessary (Policy.GateBPM). A nil Belief reproduces the PR 8
	// pipeline bitwise; so does an observer-mode policy (Smooth off, gate
	// off) for every pre-existing Result field.
	Belief *belief.Policy
}

// Protocol parameterizes the offload state machine and the reselection
// hysteresis used when fault injection is active.
type Protocol struct {
	// DeadlineFraction bounds the whole offload pipeline for one window
	// (transmit + retries + response) to this fraction of the prediction
	// period; past it the window degrades to the watch-side model.
	DeadlineFraction float64
	// AttemptTimeoutSeconds is the longest the watch waits for the phone
	// response of a single attempt before declaring it timed out.
	AttemptTimeoutSeconds float64
	// MaxRetries bounds re-attempts after the first transmission.
	MaxRetries int
	// BackoffSeconds is the wait before the first retry; it doubles with
	// every further retry.
	BackoffSeconds float64
	// FailWindows is the hysteresis threshold: consecutive degraded
	// windows before the engine reselects away from hybrid configs.
	FailWindows int
	// RecoverWindows is the opposite threshold: consecutive healthy
	// windows before the engine returns to the full configuration store.
	RecoverWindows int
	// CooldownWindows freezes reselection for this many windows after
	// any hysteresis-driven switch, so bursty links cannot thrash the
	// engine.
	CooldownWindows int
	// ReconnectSeconds is how long the link stays unusable after a
	// supervision-timeout drop while the stack re-establishes the
	// connection.
	ReconnectSeconds float64
}

// DefaultProtocol returns the calibrated defaults: a 50 % period
// deadline, 250 ms per-attempt response timeout, two retries backing off
// from 50 ms, 3-fail/5-recover hysteresis with a 10-window cooldown, and
// a 6 s reconnect after a supervision drop.
func DefaultProtocol() Protocol {
	return Protocol{
		DeadlineFraction:      0.5,
		AttemptTimeoutSeconds: 0.25,
		MaxRetries:            2,
		BackoffSeconds:        0.05,
		FailWindows:           3,
		RecoverWindows:        5,
		CooldownWindows:       10,
		ReconnectSeconds:      6,
	}
}

// Breakdown splits the watch-side energy by component.
type Breakdown struct {
	Compute power.Energy // MCU active
	Radio   power.Energy // BLE streaming
	Idle    power.Energy // MCU stop-mode
	Sensors power.Energy // PPG + IMU front end
}

// Total sums the breakdown.
func (b Breakdown) Total() power.Energy { return b.Compute + b.Radio + b.Idle + b.Sensors }

// Result aggregates a simulation run. Its counters, radio, retransmit
// and phone energy, MAE and belief summary mirror the run's Ledger (see
// State); the rest is RunState's own watch-side accounting.
type Result struct {
	SimulatedSeconds float64
	Predictions      int
	// SimpleRuns is the Ledger's SimpleRuns plus FallbackWindows: every
	// local run of the simple model (Route.Simple is set only on the
	// dispatcher's healthy path, so the two never overlap).
	SimpleRuns       int
	Offloaded        int
	SkippedWindows   int // MCU still busy with the previous prediction
	LinkDownWindows  int
	Reselections     int
	MAE              float64
	Watch            Breakdown
	PhoneEnergy      power.Energy
	BatteryDrain     power.Energy
	BatteryExhausted bool
	FinalSoC         float64
	ActiveConfig     string

	// Robustness counters, populated only when Config.Faults is set.

	// FaultScenario and FaultSeed identify the injected scenario.
	FaultScenario string
	FaultSeed     uint64
	// Retries counts offload re-attempts after a timeout.
	Retries int
	// Timeouts counts attempts abandoned without a timely phone response.
	Timeouts int
	// SupervisionDrops counts transfers killed by the supervision-timeout
	// rule (sustained packet loss converted into a link drop).
	SupervisionDrops int
	// FallbackWindows counts windows gracefully degraded to the
	// watch-side fallback model after the offload pipeline failed.
	FallbackWindows int
	// DeadlineMisses counts windows whose attempted offload produced no
	// usable phone result within the response deadline.
	DeadlineMisses int
	// RetransmitPackets counts packets re-sent due to loss.
	RetransmitPackets int
	// RetransmitEnergy is the radio energy spent beyond the lossless
	// per-window streaming cost (retransmissions and wasted transfers).
	RetransmitEnergy power.Energy
	// BrownOutEnergy is the battery drain injected by brown-out events.
	BrownOutEnergy power.Energy
	// FaultWindows counts predicted windows whose outcome was touched by
	// a fault (loss, retry, timeout, fallback, forced-down link);
	// FaultMAE is the MAE over exactly those windows.
	FaultWindows int
	FaultMAE     float64

	// Belief counters, populated only when Config.Belief is set.

	// BeliefBins is the HR-grid resolution of the active filter.
	BeliefBins int
	// GatedOffloads counts offload decisions demoted to the local simple
	// model by the uncertainty gate (the Ledger's GatedWindows).
	GatedOffloads int
	// BeliefWidthMean is the mean credible-interval width (BPM) across
	// observed windows; BeliefCoverage the fraction of observed windows
	// whose interval covered the true HR.
	BeliefWidthMean float64
	BeliefCoverage  float64
}

// Run executes the scenario to completion. It is a thin wrapper over
// RunState with a fresh State, so monolithic runs and segmented runs
// share one code path (and therefore one numeric trajectory).
func Run(cfg Config) (Result, error) {
	var st State
	if err := RunState(cfg, &st, 0); err != nil {
		return Result{}, err
	}
	return st.Res, nil
}

// RunState advances the scenario until min(stopSeconds,
// cfg.DurationSeconds); stopSeconds <= 0 (or NaN) means run to
// completion. A zero-value *st starts fresh; a State saved by a previous
// call resumes. cfg must be the same configuration across segments —
// battery and belief presence are checked, and the active configuration
// is rebound by name — but the split points themselves are free: the
// trajectory is bitwise independent of segmentation. A State the
// configuration cannot resume fails with snapshot.ErrStale or
// snapshot.ErrCorrupt (see Step.Restore), before the run advances.
//
// The tick loop wraps the per-window Step in what only the watch has: the
// MCU busy with an earlier local inference (the window is skipped), the
// MCU, idle and sensor energy, and the battery. Step.Complete tallies the
// rest of each window into the state's Ledger.
func RunState(cfg Config, st *State, stopSeconds float64) error {
	switch {
	case cfg.System == nil || cfg.Engine == nil:
		return fmt.Errorf("sim: System and Engine are required")
	case len(cfg.Windows) == 0:
		return fmt.Errorf("sim: no windows to replay")
	case cfg.DurationSeconds <= 0:
		return fmt.Errorf("sim: non-positive duration")
	}
	if st.Done {
		return nil
	}
	if cfg.Belief != nil {
		if err := cfg.Belief.Validate(); err != nil {
			return fmt.Errorf("sim: belief policy: %w", err)
		}
	}
	if st.Started {
		if st.HasBattery != (cfg.Battery != nil) {
			return fmt.Errorf("sim: resume: %w: state battery presence %v does not match config", snapshot.ErrStale, st.HasBattery)
		}
		if cfg.Battery != nil {
			if err := cfg.Battery.Restore(st.BatteryRemaining); err != nil {
				return fmt.Errorf("sim: resume: %w: %v", snapshot.ErrCorrupt, err)
			}
		}
	}
	stop := cfg.DurationSeconds
	if stopSeconds > 0 && stopSeconds < stop {
		stop = stopSeconds
	}
	sys := cfg.System
	if cfg.Trace != nil {
		prev := sys.Link.Trace()
		sys.Link.UseTrace(cfg.Trace)
		defer sys.Link.UseTrace(prev)
	}
	step, err := NewStep(sys, cfg.Engine, cfg.Constraint, cfg.Protocol, cfg.Faults, cfg.Belief)
	if err != nil {
		return err
	}
	res, led := st.Res, st.Ledger
	if st.Started {
		if err := step.Restore(&st.Carry); err != nil {
			return fmt.Errorf("sim: resume: %w", err)
		}
	} else {
		if err := step.Start(0); err != nil {
			return err
		}
		if cfg.Faults != nil {
			res.FaultScenario = cfg.Faults.Scenario().Name
			res.FaultSeed = cfg.Faults.Seed()
		}
	}

	rms := motionRMS(&cfg)
	period := sys.PeriodSeconds
	busyUntil := st.BusyUntil
	wi := st.WI
	var r Route
	t := st.T
	for ; t < stop; t += period {
		res.SimulatedSeconds = t + period
		i := wi % len(cfg.Windows)
		w := &cfg.Windows[i]
		wi++
		if err := step.Window(&r, t, w, t >= busyUntil); err != nil {
			return err
		}

		// Per-window watch-side energy, assembled component by component.
		var windowWatch power.Energy

		// Sensors sample regardless of what the MCU does.
		if cfg.IncludeSensors {
			se := sys.SensorWindowEnergy()
			res.Watch.Sensors += se
			windowWatch += se
		}

		var hr, motion float64
		skipped := r.Model == nil
		if skipped {
			// Previous local inference still running: this window is
			// dropped; its compute energy was charged when it started.
			// Once that burst finishes mid-window, the rest of the window
			// is MCU idle time, so every simulated second is charged at
			// exactly one MCU rate (TestRunIdleCoverageInvariant).
			res.SkippedWindows++
			if idle := t + period - busyUntil; idle > 0 {
				idleE := sys.MCU.IdlePower.Over(idle)
				res.Watch.Idle += idleE
				windowWatch += idleE
			}
		} else {
			var busy float64
			if r.Attempted {
				busy = r.Offload.Busy
				windowWatch += r.Offload.RadioEnergy
			}
			hr = r.Model.EstimateHR(w)
			if !r.Offloaded {
				busy += r.Cost.MCUSeconds
				compute := r.Cost.MCUEnergy
				res.Watch.Compute += compute
				windowWatch += compute
			}
			busyUntil = t + busy
			if idle := period - busy; idle > 0 {
				idleE := sys.MCU.IdlePower.Over(idle)
				res.Watch.Idle += idleE
				windowWatch += idleE
			}
			if rms != nil {
				motion = rms[i]
			}
		}
		step.Complete(&led, &r, hr, w.TrueHR, motion, skipped)

		if cfg.Battery != nil {
			drain := sys.BatteryDrainPerWindow(windowWatch)
			if cfg.Faults != nil {
				// Brown-outs hit the battery directly (a voltage sag from
				// a concurrent load), bypassing the converter.
				if bo := cfg.Faults.BrownOutBetween(t, t+period); bo > 0 {
					res.BrownOutEnergy += bo
					drain += bo
				}
			}
			res.BatteryDrain += drain
			if err := cfg.Battery.Drain(drain); err != nil {
				res.BatteryExhausted = true
				st.capture(&cfg, t, wi, busyUntil, &res, &led, step)
				st.finishRun(&cfg)
				return nil
			}
		}
	}
	st.capture(&cfg, t, wi, busyUntil, &res, &led, step)
	if stop >= cfg.DurationSeconds {
		st.finishRun(&cfg)
	}
	return nil
}

// motionRMS computes the belief update's motion RMS of every unique
// window (the stream replays cyclically, so each is computed once per
// segment and the per-window update never allocates). It is nil without
// a belief policy.
func motionRMS(cfg *Config) []float64 {
	if cfg.Belief == nil {
		return nil
	}
	rms := make([]float64, len(cfg.Windows))
	var scratch []float64
	for i := range cfg.Windows {
		rms[i], scratch = belief.MotionRMS(&cfg.Windows[i], scratch)
	}
	return rms
}
