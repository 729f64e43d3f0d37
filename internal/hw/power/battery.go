package power

import (
	"fmt"
	"math"
)

// Converter models the HWatch's TPS63031 buck-boost converter: every joule
// delivered to the load costs 1/Efficiency joules from the battery.
type Converter struct {
	Efficiency float64
}

// NewTPS63031 returns the converter at its datasheet operating point for
// sensor acquisition and processing loads (90 % efficient, HWatch paper).
func NewTPS63031() Converter { return Converter{Efficiency: 0.90} }

// FromBattery returns the battery-side energy needed to deliver load.
func (c Converter) FromBattery(load Energy) Energy {
	if c.Efficiency <= 0 {
		return load
	}
	return Energy(float64(load) / c.Efficiency)
}

// Battery is a simple coulomb-counting battery model.
type Battery struct {
	Capacity  Energy
	remaining Energy
}

// NewLiIon370 returns the HWatch battery: 370 mAh at a 3.7 V nominal
// voltage, ≈4.93 kJ.
func NewLiIon370() *Battery {
	capacity := Energy(0.370 * 3.7 * 3600)
	return &Battery{Capacity: capacity, remaining: capacity}
}

// Remaining returns the energy left.
func (b *Battery) Remaining() Energy { return b.remaining }

// SoC returns the state of charge in [0, 1].
func (b *Battery) SoC() float64 {
	if b.Capacity <= 0 {
		return 0
	}
	return float64(b.remaining) / float64(b.Capacity)
}

// Drain removes energy from the battery. It returns an error once the
// battery is exhausted; the charge never goes negative.
func (b *Battery) Drain(e Energy) error {
	if e < 0 {
		return fmt.Errorf("power: negative drain %v", e)
	}
	if e > b.remaining {
		b.remaining = 0
		return fmt.Errorf("power: battery exhausted")
	}
	b.remaining -= e
	return nil
}

// Restore sets the remaining charge to a value previously captured with
// Remaining — the battery half of resuming a checkpointed simulation.
// The charge must be finite and within [0, Capacity].
func (b *Battery) Restore(remaining Energy) error {
	if math.IsNaN(float64(remaining)) || math.IsInf(float64(remaining), 0) ||
		remaining < 0 || remaining > b.Capacity {
		return fmt.Errorf("power: restore charge %v outside [0, %v]", remaining, b.Capacity)
	}
	b.remaining = remaining
	return nil
}

// LifetimeHours projects the battery life under a constant average power
// draw (battery side).
func (b *Battery) LifetimeHours(avg Power) float64 {
	if avg <= 0 {
		return 0
	}
	return float64(b.remaining) / float64(avg) / 3600
}
