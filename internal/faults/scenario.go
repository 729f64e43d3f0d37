package faults

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hw/power"
)

// ChannelParams are the Gilbert–Elliott burst-channel parameters: a
// two-state (good/bad) Markov chain advanced once per transmitted packet,
// with an independent per-packet loss probability in each state. The zero
// value is the lossless channel and is guaranteed to consume no random
// draws (see ble.Channel.PacketLost), so a zero-fault configuration stays
// bitwise identical to the fault-free simulator.
type ChannelParams struct {
	// GoodLoss and BadLoss are per-packet loss probabilities in the good
	// and bad state.
	GoodLoss, BadLoss float64
	// GoodToBad and BadToGood are per-packet state-transition
	// probabilities; their reciprocals set the mean burst lengths.
	GoodToBad, BadToGood float64
}

// Zero reports whether the parameters describe the lossless, draw-free
// channel.
func (p ChannelParams) Zero() bool { return p == ChannelParams{} }

// Interval is a half-open time range [From, To) in scenario seconds.
type Interval struct {
	From, To float64
}

// Contains reports whether t lies in the interval.
func (iv Interval) Contains(t float64) bool { return t >= iv.From && t < iv.To }

// LossSegment applies Channel from From (scenario seconds) until the next
// segment's From. Time before the first segment is lossless.
type LossSegment struct {
	From    float64
	Channel ChannelParams
}

// LatencySpike adds Extra seconds to every phone response inside the
// interval (a busy phone, a backgrounded app, a GC pause).
type LatencySpike struct {
	Interval
	Extra float64
}

// BrownOut is an instantaneous battery event at time At: Drain joules are
// pulled straight from the battery (not through the converter), modelling
// a voltage sag from a concurrent load such as a haptic burst or display
// flash.
type BrownOut struct {
	At    float64
	Drain power.Energy
}

// Scenario is a pure-data fault script: what goes wrong, when. All times
// are scenario seconds; when PeriodSeconds is positive the whole script
// repeats with that period, so a preset describes one representative
// cycle and applies to any simulation horizon.
type Scenario struct {
	Name string
	// PeriodSeconds > 0 repeats the script; 0 plays it once on the
	// absolute timeline.
	PeriodSeconds float64
	// Loss segments must be sorted by ascending From.
	Loss []LossSegment
	// Flaps are forced link-down intervals (out of radio range, airplane
	// mode): the link is down regardless of channel state.
	Flaps []Interval
	// Latency spikes delay phone responses.
	Latency []LatencySpike
	// PhoneDown intervals make the phone unreachable at the application
	// level even though the BLE link is up (app killed, phone off).
	PhoneDown []Interval
	// BrownOuts are instantaneous battery drains.
	BrownOuts []BrownOut
}

// minPeriodSeconds bounds repeating scenarios away from degenerate
// periods: a sub-millisecond repetition has no physical meaning and
// would make per-occurrence iteration (BrownOutBetween) unboundedly
// expensive over a simulation window.
const minPeriodSeconds = 1e-3

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func validProb(p float64) bool { return finite(p) && p >= 0 && p <= 1 }

// Validate checks the scenario's structural invariants. Every numeric
// field must be finite (NaN compares false against everything, so
// without explicit checks a NaN timestamp would sail through the
// ordering checks below and poison the injector's queries).
func (s Scenario) Validate() error {
	if !finite(s.PeriodSeconds) || s.PeriodSeconds < 0 {
		return fmt.Errorf("faults: period %v is not a non-negative finite duration", s.PeriodSeconds)
	}
	if s.PeriodSeconds > 0 && s.PeriodSeconds < minPeriodSeconds {
		return fmt.Errorf("faults: period %v shorter than %v s", s.PeriodSeconds, minPeriodSeconds)
	}
	for i, seg := range s.Loss {
		if !finite(seg.From) {
			return fmt.Errorf("faults: loss segment %d has non-finite start", i)
		}
		c := seg.Channel
		if !validProb(c.GoodLoss) || !validProb(c.BadLoss) ||
			!validProb(c.GoodToBad) || !validProb(c.BadToGood) {
			return fmt.Errorf("faults: loss segment %d has channel parameters outside [0,1]", i)
		}
		if i > 0 && seg.From <= s.Loss[i-1].From {
			return fmt.Errorf("faults: loss segments not strictly ascending at %d", i)
		}
	}
	check := func(kind string, ivs []Interval) error {
		for i, iv := range ivs {
			if !finite(iv.From) || !finite(iv.To) {
				return fmt.Errorf("faults: %s interval %d has non-finite bounds", kind, i)
			}
			if iv.To <= iv.From {
				return fmt.Errorf("faults: %s interval %d is empty or inverted", kind, i)
			}
		}
		return nil
	}
	if err := check("flap", s.Flaps); err != nil {
		return err
	}
	if err := check("phone-down", s.PhoneDown); err != nil {
		return err
	}
	for i, l := range s.Latency {
		if !finite(l.From) || !finite(l.To) {
			return fmt.Errorf("faults: latency interval %d has non-finite bounds", i)
		}
		if l.To <= l.From {
			return fmt.Errorf("faults: latency interval %d is empty or inverted", i)
		}
		if !finite(l.Extra) || l.Extra < 0 {
			return fmt.Errorf("faults: latency spike %d has negative or non-finite delay", i)
		}
	}
	for i, b := range s.BrownOuts {
		if !finite(b.At) {
			return fmt.Errorf("faults: brown-out %d has non-finite time", i)
		}
		if !finite(float64(b.Drain)) || b.Drain < 0 {
			return fmt.Errorf("faults: brown-out %d has negative or non-finite drain", i)
		}
		if s.PeriodSeconds > 0 && (b.At < 0 || b.At >= s.PeriodSeconds) {
			return fmt.Errorf("faults: brown-out %d outside the scenario period", i)
		}
	}
	return nil
}

// wrap maps an absolute simulation time onto the scenario timeline. It
// returns math.Mod(t, PeriodSeconds) bit for bit (FuzzWrapMatchesMod)
// without Mod's per-exponent reduction loop on the common path: when
// k = ⌊t/p⌋ is the true quotient, the remainder t − k·p is exactly
// representable, so the fused multiply-add rounds nothing. A quotient off
// by one puts the rounded r outside [0, p) (rounding is monotone and
// cannot make a nonzero multiple of the operands' ulp zero), and that
// case, negative t and non-finite t take Mod itself.
func (s *Scenario) wrap(t float64) float64 {
	p := s.PeriodSeconds
	if p <= 0 {
		return t
	}
	if t >= 0 {
		if t < p {
			return t
		}
		if r := math.FMA(-math.Floor(t/p), p, t); r >= 0 && r < p {
			return r
		}
	}
	return math.Mod(t, p)
}

// Injector is one replayable instance of a scenario: the scenario script
// plus the seeded random stream that resolves its probabilistic parts
// (per-packet channel draws). Two injectors built from the same
// (Scenario, seed) produce identical fault streams.
type Injector struct {
	sc   Scenario
	seed uint64
	rng  *Rand
}

// NewInjector validates the scenario and binds it to a seed.
func NewInjector(sc Scenario, seed uint64) (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &Injector{sc: sc, seed: seed, rng: NewRand(seed).Fork("ble-packets")}, nil
}

// Scenario returns the bound scenario.
func (in *Injector) Scenario() Scenario { return in.sc }

// Seed returns the injection seed.
func (in *Injector) Seed() uint64 { return in.seed }

// Rand is the per-packet channel stream. The simulator passes it to
// ble.Link.TransmitLossy; nothing else may draw from it, so packet
// outcomes replay exactly.
func (in *Injector) Rand() *Rand { return in.rng }

// ChannelAt returns the burst-channel parameters governing time t: the
// last loss segment starting at or before t (lossless before the first).
func (in *Injector) ChannelAt(t float64) ChannelParams {
	tt := in.sc.wrap(t)
	segs := in.sc.Loss
	i := sort.Search(len(segs), func(i int) bool { return segs[i].From > tt })
	if i == 0 {
		return ChannelParams{}
	}
	return segs[i-1].Channel
}

// ForcedDown reports whether a flap forces the link down at time t.
func (in *Injector) ForcedDown(t float64) bool {
	tt := in.sc.wrap(t)
	for _, iv := range in.sc.Flaps {
		if iv.Contains(tt) {
			return true
		}
	}
	return false
}

// ResponseLatency returns the extra phone response delay at time t.
func (in *Injector) ResponseLatency(t float64) float64 {
	tt := in.sc.wrap(t)
	extra := 0.0
	for _, l := range in.sc.Latency {
		if l.Contains(tt) {
			extra += l.Extra
		}
	}
	return extra
}

// PhoneAvailable reports whether the phone answers at time t.
func (in *Injector) PhoneAvailable(t float64) bool {
	tt := in.sc.wrap(t)
	for _, iv := range in.sc.PhoneDown {
		if iv.Contains(tt) {
			return false
		}
	}
	return true
}

// BrownOutBetween sums the brown-out drain scheduled in the absolute
// half-open window [t0, t1), accounting for scenario repetition.
func (in *Injector) BrownOutBetween(t0, t1 float64) power.Energy {
	var total power.Energy
	p := in.sc.PeriodSeconds
	for _, b := range in.sc.BrownOuts {
		if p <= 0 {
			if b.At >= t0 && b.At < t1 {
				total += b.Drain
			}
			continue
		}
		// Occurrences at b.At + k·p for k ≥ 0; count those inside [t0, t1).
		k := math.Ceil((t0 - b.At) / p)
		if k < 0 {
			k = 0
		}
		for at := b.At + k*p; at < t1; at += p {
			if at >= t0 {
				total += b.Drain
			}
		}
	}
	return total
}
