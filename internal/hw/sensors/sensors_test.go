package sensors

import (
	"testing"

	"repro/internal/dalia"
	"repro/internal/models/rf"
)

func trainForest(t *testing.T, cfg rf.Config) *rf.Classifier {
	t.Helper()
	c := dalia.DefaultConfig()
	c.Subjects = 2
	c.DurationScale = 0.03
	var ws []dalia.Window
	for s := 0; s < c.Subjects; s++ {
		rec, err := dalia.GenerateSubject(c, s)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, dalia.Windows(rec, c.WindowSamples, c.StrideSamples)...)
	}
	cls, err := rf.Train(ws, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

func TestMLCoreAcceptsPaperForest(t *testing.T) {
	imu := NewLSM6DSM()
	cls := trainForest(t, rf.DefaultConfig())
	if err := imu.CheckFit(cls); err != nil {
		t.Errorf("paper forest rejected by ML core: %v", err)
	}
}

func TestMLCoreRejectsOversizedForest(t *testing.T) {
	imu := NewLSM6DSM()
	big := rf.DefaultConfig()
	big.Trees = 16
	cls := trainForest(t, big)
	if err := imu.CheckFit(cls); err == nil {
		t.Error("16-tree forest accepted by 8-tree ML core")
	}
	deep := rf.DefaultConfig()
	deep.MaxDepth = 12
	deepCls := trainForest(t, deep)
	if deepCls.MaxDepth() > imu.MaxDepth {
		if err := imu.CheckFit(deepCls); err == nil {
			t.Error("over-deep forest accepted")
		}
	}
	if err := imu.CheckFit(nil); err == nil {
		t.Error("nil classifier accepted")
	}
}

func TestSensorEnergies(t *testing.T) {
	ppg := NewMAX30101()
	imu := NewLSM6DSM()
	const period = 2.0
	if ppg.WindowEnergy(period) <= 0 || imu.WindowEnergy(period) <= 0 {
		t.Error("sensor window energies must be positive")
	}
	// PPG acquisition dominates the IMU by an order of magnitude.
	if float64(ppg.WindowEnergy(period)) < 5*float64(imu.WindowEnergy(period)) {
		t.Error("MAX30101 should dominate LSM6DSM consumption")
	}
}
