// Package sensors models the HWatch front end: the MAX30101 pulse
// oximeter (PPG) and the LSM6DSM 6-axis IMU whose embedded
// machine-learning core executes the CHRIS difficulty detector at zero MCU
// cost.
package sensors

import (
	"fmt"

	"repro/internal/hw/power"
	"repro/internal/models/rf"
)

// MAX30101 models the PPG sensor in continuous HR acquisition mode.
type MAX30101 struct {
	// SampleRateHz of the photodetector channel used (32 Hz here).
	SampleRateHz float64
	// AcquisitionPower is the LED + analog front-end average power in
	// continuous mode (datasheet-order figure: ≈600 µA at 1.8 V).
	AcquisitionPower power.Power
}

// NewMAX30101 returns the sensor model.
func NewMAX30101() *MAX30101 {
	return &MAX30101{SampleRateHz: 32, AcquisitionPower: power.MilliWatts(1.08)}
}

// WindowEnergy returns the acquisition energy over one window period.
func (s *MAX30101) WindowEnergy(periodSeconds float64) power.Energy {
	return s.AcquisitionPower.Over(periodSeconds)
}

// LSM6DSM models the IMU and its machine-learning core (MLC). The MLC
// executes decision-tree ensembles directly in the sensor; the HWatch
// deploys the CHRIS Random Forest there, so activity recognition costs the
// main MCU nothing.
type LSM6DSM struct {
	// AccelPower is the 3-axis low-power mode accelerometer draw.
	AccelPower power.Power
	// MLCPower is the additional draw of the ML core while classifying.
	MLCPower power.Power
	// Capacity limits of the ML core.
	MaxTrees     int
	MaxDepth     int
	MaxNodes     int
	MaxFeatures  int
	SampleRateHz float64
}

// NewLSM6DSM returns the sensor model with MLC limits that accommodate the
// paper's forest (8 trees, depth 5, 4 features).
func NewLSM6DSM() *LSM6DSM {
	return &LSM6DSM{
		AccelPower:   power.MicroWatts(45),
		MLCPower:     power.MicroWatts(12),
		MaxTrees:     8,
		MaxDepth:     6, // levels, i.e. split depth 5 + leaf level
		MaxNodes:     512,
		MaxFeatures:  8,
		SampleRateHz: 32,
	}
}

// CheckFit verifies a trained forest fits the ML core.
func (s *LSM6DSM) CheckFit(c *rf.Classifier) error {
	switch {
	case c == nil:
		return fmt.Errorf("sensors: nil classifier")
	case c.Trees() > s.MaxTrees:
		return fmt.Errorf("sensors: %d trees exceed MLC limit %d", c.Trees(), s.MaxTrees)
	case c.MaxDepth() > s.MaxDepth:
		return fmt.Errorf("sensors: depth %d exceeds MLC limit %d", c.MaxDepth(), s.MaxDepth)
	case c.Nodes() > s.MaxNodes:
		return fmt.Errorf("sensors: %d nodes exceed MLC limit %d", c.Nodes(), s.MaxNodes)
	case len(c.Features()) > s.MaxFeatures:
		return fmt.Errorf("sensors: %d features exceed MLC limit %d", len(c.Features()), s.MaxFeatures)
	}
	return nil
}

// WindowEnergy returns accelerometer + MLC energy over one window period.
func (s *LSM6DSM) WindowEnergy(periodSeconds float64) power.Energy {
	return (s.AccelPower + s.MLCPower).Over(periodSeconds)
}
