package bench

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

var (
	quickOnce  sync.Once
	quickSuite *Suite
	quickErr   error
)

func getQuickSuite(t *testing.T) *Suite {
	t.Helper()
	quickOnce.Do(func() {
		quickSuite, quickErr = NewSuite(QuickSuiteConfig())
	})
	if quickErr != nil {
		t.Fatal(quickErr)
	}
	return quickSuite
}

func TestNewSuiteQuick(t *testing.T) {
	s := getQuickSuite(t)
	if len(s.Profiles) != 60 {
		t.Errorf("profiles = %d, want 60", len(s.Profiles))
	}
	if len(s.TestWindows) == 0 || len(s.ProfileRecords) == 0 {
		t.Error("missing windows or records")
	}
	if len(s.Reports) != 3 {
		t.Errorf("reports = %d, want 3", len(s.Reports))
	}
	for i := 1; i < len(s.Profiles); i++ {
		if s.Profiles[i].WatchEnergy < s.Profiles[i-1].WatchEnergy {
			t.Fatal("profiles not energy-sorted")
		}
	}
}

func TestNewSuiteValidation(t *testing.T) {
	bad := QuickSuiteConfig()
	bad.TrainSubjects = 4
	if _, err := NewSuite(bad); err == nil {
		t.Error("overfull split accepted")
	}
}

func TestArtifactsRender(t *testing.T) {
	s := getQuickSuite(t)
	arts := Artifacts(s)
	if len(arts) != 11 {
		t.Fatalf("got %d artifacts, want 11", len(arts))
	}
	seen := map[string]bool{}
	for _, a := range arts {
		if a.ID == "" || a.Text == "" {
			t.Errorf("artifact %q incomplete", a.Title)
		}
		if seen[a.ID] {
			t.Errorf("duplicate artifact id %s", a.ID)
		}
		seen[a.ID] = true
	}
	for _, id := range []string{"T1", "T2", "T3", "F3", "F4", "F5", "X1", "X2", "A1", "A2", "A3"} {
		if !seen[id] {
			t.Errorf("missing artifact %s", id)
		}
	}
}

func TestTableIIIMatchesCalibration(t *testing.T) {
	s := getQuickSuite(t)
	a := TableIII(s)
	if a.Metrics["cycles_AT"] != 100_000 {
		t.Errorf("AT cycles = %v", a.Metrics["cycles_AT"])
	}
	if a.Metrics["cycles_TimePPG-Big"] != 103_160_000 {
		t.Errorf("Big cycles = %v", a.Metrics["cycles_TimePPG-Big"])
	}
	if !strings.Contains(a.Text, "Bluetooth") {
		t.Error("Table III missing the Bluetooth row")
	}
}

func TestFig4SelectionsAndPareto(t *testing.T) {
	s := getQuickSuite(t)
	art, data := Fig4(s)
	if len(data.Front) == 0 {
		t.Fatal("empty Pareto front")
	}
	if !data.Sel1OK {
		t.Error("Sel. Model 1 not found")
	}
	if data.Sel1OK && data.Sel2OK && data.Sel2.WatchEnergy > data.Sel1.WatchEnergy {
		t.Error("relaxed constraint should not cost more energy")
	}
	if art.Metrics["pareto"] <= 0 || art.Metrics["configs"] != 60 {
		t.Errorf("metrics = %v", art.Metrics)
	}
}

func TestFig5Monotonicity(t *testing.T) {
	s := getQuickSuite(t)
	a := Fig5(s)
	// Sweeping easy activities 0→9 must monotonically decrease energy
	// (AT replaces BLE+phone) — MAE generally grows but noise in a quick
	// suite may wiggle it, so only energy is asserted strictly.
	prev := a.Metrics["energy_mJ_t0"]
	for thr := 1; thr < core.NumThresholds; thr++ {
		cur := a.Metrics[join("energy_mJ_t", thr)]
		if cur > prev+1e-9 {
			t.Errorf("energy increased at threshold %d: %v > %v", thr, cur, prev)
		}
		prev = cur
	}
	if a.Metrics["mae_t9"] < a.Metrics["mae_t0"] {
		t.Error("all-easy MAE should exceed all-complex MAE")
	}
}

func join(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func TestBLEDownParetoArtifact(t *testing.T) {
	s := getQuickSuite(t)
	a := BLEDownPareto(s)
	if a.Metrics["local_pareto_points"] < 2 {
		t.Errorf("local Pareto points = %v", a.Metrics["local_pareto_points"])
	}
	if a.Metrics["mae_span"] <= 0 {
		t.Error("local front has no MAE span")
	}
}

func TestRFAccuracyArtifact(t *testing.T) {
	s := getQuickSuite(t)
	a := RFAccuracy(s)
	// The quick suite trains on just two subjects, so thresholds that cut
	// between adjacent look-alike activities are weak; the paper-level
	// ≥0.9 claim is validated on the full suite (see EXPERIMENTS.md).
	if a.Metrics["acc_worst_binary"] < 0.55 {
		t.Errorf("worst binary accuracy %v below sanity floor", a.Metrics["acc_worst_binary"])
	}
	if a.Metrics["acc_t1"] < 0.8 {
		t.Errorf("extreme-threshold accuracy %v too low", a.Metrics["acc_t1"])
	}
}

func TestAblations(t *testing.T) {
	s := getQuickSuite(t)
	a1 := AblationDispatch(s)
	if a1.Metrics["mae_oracle"] <= 0 || a1.Metrics["mae_random"] <= 0 {
		t.Error("dispatch ablation incomplete")
	}
	// The oracle detector can only improve (or tie) the RF's MAE.
	if a1.Metrics["mae_oracle"] > a1.Metrics["mae_rf"]+0.5 {
		t.Errorf("oracle MAE %v much worse than RF %v", a1.Metrics["mae_oracle"], a1.Metrics["mae_rf"])
	}
	a2 := AblationIdlePower(s)
	if a2.Metrics["at_mJ_x4"] <= a2.Metrics["at_mJ_x0.5"] {
		t.Error("idle scaling not monotone")
	}
	a3 := AblationQuantization(s)
	if a3.Metrics["float_mae_TimePPG-Small"] <= 0 {
		t.Error("quantization ablation missing float MAE")
	}
}

func TestRecordsCacheRoundTrip(t *testing.T) {
	s := getQuickSuite(t)
	dir := t.TempDir()
	path := dir + "/records.chrc"
	if err := saveRecords(path, s.TestRecords); err != nil {
		t.Fatal(err)
	}
	recs, err := loadRecords(path, len(s.TestRecords))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if recs[i].TrueHR != s.TestRecords[i].TrueHR || recs[i].Difficulty != s.TestRecords[i].Difficulty {
			t.Fatal("cache round trip mismatch")
		}
	}
	if _, err := loadRecords(path, 1); err == nil {
		t.Error("stale cache accepted")
	}
	if _, err := loadRecords(dir+"/missing.chrc", 1); err == nil {
		t.Error("missing cache accepted")
	}
}
