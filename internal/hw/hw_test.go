package hw

import (
	"math"
	"testing"

	"repro/internal/dalia"
	"repro/internal/hw/ble"
	"repro/internal/models"
	"repro/internal/models/at"
	"repro/internal/models/tcn"
)

func TestTableIIIWatchReproduction(t *testing.T) {
	s := NewSystem()
	check := func(name string, gotCycles int64, gotTimeS, gotEmJ, wantCycles, wantTimeMs, wantEmJ float64) {
		t.Helper()
		if float64(gotCycles) != wantCycles {
			t.Errorf("%s cycles = %d, want %.0f", name, gotCycles, wantCycles)
		}
		if math.Abs(gotTimeS*1e3-wantTimeMs) > wantTimeMs*0.01 {
			t.Errorf("%s time = %.3f ms, want %.3f", name, gotTimeS*1e3, wantTimeMs)
		}
		if math.Abs(gotEmJ-wantEmJ) > wantEmJ*0.01 {
			t.Errorf("%s energy = %.3f mJ, want %.3f (±1%%)", name, gotEmJ, wantEmJ)
		}
	}
	atM := at.New()
	small := tcn.NewEstimator(tcn.NewTimePPGSmall())
	big := tcn.NewEstimator(tcn.NewTimePPGBig())
	check("AT", s.MCU.Cycles(atM), s.MCU.ComputeSeconds(atM),
		s.WatchLocalEnergy(atM).MilliJoules(), 100_000, 1.563, 0.234)
	check("Small", s.MCU.Cycles(small), s.MCU.ComputeSeconds(small),
		s.WatchLocalEnergy(small).MilliJoules(), 1_365_000, 21.326, 0.735)
	check("Big", s.MCU.Cycles(big), s.MCU.ComputeSeconds(big),
		s.WatchLocalEnergy(big).MilliJoules(), 103_160_000, 1611.88, 41.11)
}

func TestTableIIIPhoneReproduction(t *testing.T) {
	s := NewSystem()
	atM := at.New()
	small := tcn.NewEstimator(tcn.NewTimePPGSmall())
	big := tcn.NewEstimator(tcn.NewTimePPGBig())
	if got := s.Phone.ComputeSeconds(atM) * 1e3; math.Abs(got-1.00) > 0.02 {
		t.Errorf("phone AT time %.3f ms, want 1.00", got)
	}
	if got := s.PhoneEnergy(atM).MilliJoules(); math.Abs(got-1.60) > 0.02 {
		t.Errorf("phone AT energy %.3f mJ, want 1.60", got)
	}
	if got := s.Phone.ComputeSeconds(small) * 1e3; math.Abs(got-3.45) > 0.04 {
		t.Errorf("phone Small time %.3f ms, want 3.45", got)
	}
	if got := s.PhoneEnergy(small).MilliJoules(); math.Abs(got-5.54) > 0.06 {
		t.Errorf("phone Small energy %.3f mJ, want 5.54", got)
	}
	if got := s.Phone.ComputeSeconds(big) * 1e3; math.Abs(got-15.96) > 0.16 {
		t.Errorf("phone Big time %.3f ms, want 15.96", got)
	}
	if got := s.PhoneEnergy(big).MilliJoules(); math.Abs(got-25.60) > 0.26 {
		t.Errorf("phone Big energy %.3f mJ, want 25.60", got)
	}
}

func TestBLECalibration(t *testing.T) {
	s := NewSystem()
	tx := s.Link.TransmitSeconds(ble.WindowBytes)
	if math.Abs(tx*1e3-10.24) > 0.01 {
		t.Errorf("BLE window time %.3f ms, want 10.240", tx*1e3)
	}
	e := s.WatchOffloadActiveEnergy().MilliJoules()
	if math.Abs(e-0.52) > 0.005 {
		t.Errorf("BLE window energy %.4f mJ, want 0.52", e)
	}
	if got := s.Link.Packets(ble.WindowBytes); got != 9 {
		t.Errorf("window packets = %d, want 9", got)
	}
	if got := s.Link.Packets(0); got != 0 {
		t.Errorf("zero payload packets = %d", got)
	}
	if got := s.Link.TransmitEnergy(0); got != 0 {
		t.Errorf("zero payload energy = %v", got)
	}
}

func TestOffloadVsLocalCrossover(t *testing.T) {
	// The paper's §IV-A observations must hold in the model:
	// AT: local is cheaper than offloading for the watch.
	// Small: offloading is slightly cheaper (active view).
	// Big: offloading is much cheaper.
	s := NewSystem()
	atM := at.New()
	small := tcn.NewEstimator(tcn.NewTimePPGSmall())
	big := tcn.NewEstimator(tcn.NewTimePPGBig())
	offload := s.WatchOffloadActiveEnergy()
	if s.WatchLocalActiveEnergy(atM) >= offload {
		t.Error("AT should be cheaper locally than offloaded")
	}
	if s.WatchLocalActiveEnergy(small) <= offload {
		t.Error("Small should cost more locally than the BLE stream (0.543 vs 0.519 mJ)")
	}
	if s.WatchLocalActiveEnergy(big) <= 10*offload {
		t.Error("Big local should dwarf the BLE stream")
	}
}

func TestIdleAccounting(t *testing.T) {
	s := NewSystem()
	atM := at.New()
	diff := s.WatchLocalEnergy(atM) - s.WatchLocalActiveEnergy(atM)
	wantIdle := s.MCU.IdlePower.Over(s.PeriodSeconds - s.MCU.ComputeSeconds(atM))
	if math.Abs(float64(diff-wantIdle)) > 1e-9 {
		t.Errorf("idle accounting mismatch: diff %v, want %v", diff, wantIdle)
	}
	// Offloaded windows still pay MCU idle for the non-radio time.
	off := s.WatchOffloadEnergy()
	if off <= s.WatchOffloadActiveEnergy() {
		t.Error("idle-inclusive offload must exceed BLE-only energy")
	}
}

type customModel struct{}

func (c *customModel) Name() string                       { return "custom" }
func (c *customModel) Ops() int64                         { return 1_000_000 }
func (c *customModel) Params() int64                      { return 0 }
func (c *customModel) EstimateHR(w *dalia.Window) float64 { return 75 }

func TestUnknownModelFallback(t *testing.T) {
	s := NewSystem()
	custom := &customModel{}
	if got := s.MCU.Cycles(custom); got != int64(float64(custom.Ops())*s.MCU.CyclesPerOp) {
		t.Errorf("MCU fallback cycles = %d", got)
	}
	if got := s.Phone.Cycles(custom); got != int64(float64(custom.Ops())*s.Phone.CyclesPerOp) {
		t.Errorf("phone fallback cycles = %d", got)
	}
}

func TestSensorAndBattery(t *testing.T) {
	s := NewSystem()
	if s.SensorWindowEnergy() <= 0 {
		t.Error("sensor energy must be positive")
	}
	load := s.WatchLocalEnergy(at.New())
	drain := s.BatteryDrainPerWindow(load)
	if math.Abs(float64(drain)-float64(load)/0.9) > 1e-12 {
		t.Errorf("converter drain %v for load %v, want load/0.9", drain, load)
	}
}

// TestCostMatchesQueries: Cost is the per-window step's cached copy of
// the per-model queries, so each field must equal its query bitwise, for
// calibrated models and for the ops-based fallback alike.
func TestCostMatchesQueries(t *testing.T) {
	s := NewSystem()
	for _, m := range []models.HREstimator{
		at.New(),
		tcn.NewEstimator(tcn.NewTimePPGSmall()),
		tcn.NewEstimator(tcn.NewTimePPGBig()),
		&customModel{},
	} {
		want := Cost{
			MCUSeconds:   s.MCU.ComputeSeconds(m),
			MCUEnergy:    s.WatchLocalActiveEnergy(m),
			PhoneSeconds: s.Phone.ComputeSeconds(m),
			PhoneEnergy:  s.PhoneEnergy(m),
		}
		if got := s.Cost(m); got != want {
			t.Errorf("%s: Cost = %+v, queries give %+v", m.Name(), got, want)
		}
	}
}
