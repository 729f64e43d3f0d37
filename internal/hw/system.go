package hw

import (
	"repro/internal/hw/ble"
	"repro/internal/hw/mcu"
	"repro/internal/hw/phone"
	"repro/internal/hw/power"
	"repro/internal/hw/sensors"
	"repro/internal/models"
)

// DefaultPeriodSeconds is the prediction period: one analysis window every
// 2 s (the windowing stride of the paper).
const DefaultPeriodSeconds = 2.0

// System is the assembled platform. Its component calibrations — the
// MCU and phone cycle tables, clocks and power levels — are read-only once
// a per-window step (sim.Step) is built on it: the step resolves each
// model's Cost when it is built, so a later edit would reach only some of
// the accounting.
type System struct {
	MCU       *mcu.STM32WB55
	Phone     *phone.RPi3
	Link      *ble.Link
	PPG       *sensors.MAX30101
	IMU       *sensors.LSM6DSM
	Converter power.Converter
	// PeriodSeconds is the prediction period used for idle accounting.
	PeriodSeconds float64
}

// NewSystem returns the paper-calibrated platform.
func NewSystem() *System {
	return &System{
		MCU:           mcu.New(),
		Phone:         phone.New(),
		Link:          ble.New(),
		PPG:           sensors.NewMAX30101(),
		IMU:           sensors.NewLSM6DSM(),
		Converter:     power.NewTPS63031(),
		PeriodSeconds: DefaultPeriodSeconds,
	}
}

// WatchLocalEnergy is the idle-inclusive per-prediction watch energy of
// running a model locally (the paper's Table III "Board" view).
func (s *System) WatchLocalEnergy(est models.HREstimator) power.Energy {
	return s.MCU.WindowEnergy(est, s.PeriodSeconds)
}

// WatchLocalActiveEnergy is the compute-only watch energy of one local
// inference (the Table I / Fig. 4 view).
func (s *System) WatchLocalActiveEnergy(est models.HREstimator) power.Energy {
	return s.MCU.ActiveEnergy(est)
}

// WatchOffloadActiveEnergy is the watch-side energy of offloading one
// prediction: the fixed BLE streaming cost (input size is model
// independent, §IV-A).
func (s *System) WatchOffloadActiveEnergy() power.Energy {
	return s.Link.WindowTransmitEnergy()
}

// WatchOffloadEnergy is the idle-inclusive watch energy of an offloaded
// prediction: radio time plus MCU idle for the rest of the period.
func (s *System) WatchOffloadEnergy() power.Energy {
	tx := s.Link.TransmitSeconds(ble.WindowBytes)
	return s.Link.WindowTransmitEnergy() + s.MCU.IdleWindowEnergy(s.PeriodSeconds, tx)
}

// PhoneEnergy is the phone-side energy of one inference.
func (s *System) PhoneEnergy(est models.HREstimator) power.Energy {
	return s.Phone.ComputeEnergy(est)
}

// Cost is one model's per-inference cost on the platform: the watch
// MCU's latency and active energy of running it locally, and the phone's
// latency and energy of running it after an offload.
type Cost struct {
	MCUSeconds   float64
	MCUEnergy    power.Energy
	PhoneSeconds float64
	PhoneEnergy  power.Energy
}

// Cost resolves est's per-inference costs through the cycle tables. The
// values are exactly those of MCU.ComputeSeconds, WatchLocalActiveEnergy,
// Phone.ComputeSeconds and PhoneEnergy, so the per-window step resolves
// them once per configuration and never consults the tables per window.
func (s *System) Cost(est models.HREstimator) Cost {
	return Cost{
		MCUSeconds:   s.MCU.ComputeSeconds(est),
		MCUEnergy:    s.MCU.ActiveEnergy(est),
		PhoneSeconds: s.Phone.ComputeSeconds(est),
		PhoneEnergy:  s.PhoneEnergy(est),
	}
}

// SensorWindowEnergy is the always-on front-end energy per period (PPG
// acquisition + IMU with its ML core). It is accounted separately from the
// MCU energies, which reproduce the paper's tables.
func (s *System) SensorWindowEnergy() power.Energy {
	return s.PPG.WindowEnergy(s.PeriodSeconds) + s.IMU.WindowEnergy(s.PeriodSeconds)
}

// BatteryDrainPerWindow converts a watch-side load energy into battery
// drain through the converter.
func (s *System) BatteryDrainPerWindow(load power.Energy) power.Energy {
	return s.Converter.FromBattery(load)
}
