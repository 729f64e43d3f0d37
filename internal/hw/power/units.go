// Package power provides the electrical substrate of the hardware models:
// strongly named energy/power units, the smartwatch battery, and the
// TPS63031 buck-boost converter.
package power

import "fmt"

// Energy in joules.
type Energy float64

// Power in watts.
type Power float64

// Handy constructors mirroring the units the paper reports.
func MilliJoules(v float64) Energy { return Energy(v * 1e-3) }
func MicroJoules(v float64) Energy { return Energy(v * 1e-6) }
func MilliWatts(v float64) Power   { return Power(v * 1e-3) }
func MicroWatts(v float64) Power   { return Power(v * 1e-6) }

// MilliJoules converts to the paper's table unit.
func (e Energy) MilliJoules() float64 { return float64(e) * 1e3 }

// MicroJoules converts to µJ.
func (e Energy) MicroJoules() float64 { return float64(e) * 1e6 }

// String formats with an adaptive SI prefix.
func (e Energy) String() string {
	v := float64(e)
	switch {
	case v == 0:
		return "0 J"
	case v < 1e-3:
		return fmt.Sprintf("%.3g µJ", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.4g mJ", v*1e3)
	default:
		return fmt.Sprintf("%.4g J", v)
	}
}

// String formats with an adaptive SI prefix.
func (p Power) String() string {
	v := float64(p)
	switch {
	case v == 0:
		return "0 W"
	case v < 1e-3:
		return fmt.Sprintf("%.3g µW", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.4g mW", v*1e3)
	default:
		return fmt.Sprintf("%.4g W", v)
	}
}

// Over returns the energy of drawing power p for d seconds.
func (p Power) Over(seconds float64) Energy { return Energy(float64(p) * seconds) }
