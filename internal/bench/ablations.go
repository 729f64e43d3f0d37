package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/eval"
	"repro/internal/hw/power"
	"repro/internal/models"
	"repro/internal/models/tcn"
)

// AblationDispatch quantifies how much the Random-Forest difficulty
// detector matters: the hybrid [AT, Big] configuration is re-profiled with
// the RF's decisions replaced by an oracle (true activity) and by a
// uniform random detector. DESIGN.md experiment A1.
func AblationDispatch(s *Suite) Artifact {
	t := eval.NewTable("Ablation A1 — dispatch quality on hybrid [AT,TimePPG-Big], threshold 5",
		"Detector", "MAE [BPM]", "E watch [mJ]")
	metrics := map[string]float64{}

	variants := []struct {
		name string
		mut  func([]core.WindowRecord) []core.WindowRecord
	}{
		{"rf", func(r []core.WindowRecord) []core.WindowRecord { return r }},
		{"oracle", oracleRecords},
		{"random", randomRecords},
	}
	cfg := core.Config{Simple: s.AT, Complex: s.Big, Threshold: 5, Exec: core.Hybrid}
	for _, v := range variants {
		recs := v.mut(s.ProfileRecords)
		p, err := core.ProfileConfig(cfg, recs, s.Sys)
		if err != nil {
			continue
		}
		t.AddRow(v.name, fmt.Sprintf("%.2f", p.MAE), fmt.Sprintf("%.4f", p.WatchEnergy.MilliJoules()))
		metrics["mae_"+v.name] = p.MAE
		metrics["energy_mJ_"+v.name] = p.WatchEnergy.MilliJoules()
	}
	return Artifact{ID: "A1", Title: "Ablation: dispatch", Text: t.String(), Metrics: metrics}
}

func oracleRecords(recs []core.WindowRecord) []core.WindowRecord {
	out := core.CloneRecords(recs)
	for i := range out {
		out[i].Difficulty = out[i].Activity.DifficultyID()
	}
	return out
}

func randomRecords(recs []core.WindowRecord) []core.WindowRecord {
	rng := rand.New(rand.NewSource(99))
	out := core.CloneRecords(recs)
	for i := range out {
		out[i].Difficulty = 1 + rng.Intn(9)
	}
	return out
}

// AblationIdlePower quantifies how the MCU's idle power moves the
// idle-inclusive energy landscape (DESIGN.md experiment A2): the paper's
// STOP-mode figure is swept from one half to four times its value.
func AblationIdlePower(s *Suite) Artifact {
	t := eval.NewTable("Ablation A2 — idle-power sensitivity (idle-inclusive watch energy, mJ)",
		"Idle scale", "AT", "TimePPG-Small", "BLE offload")
	metrics := map[string]float64{}
	base := s.Sys.MCU.IdlePower
	defer func() { s.Sys.MCU.IdlePower = base }()
	for _, scale := range []float64{0.5, 1, 2, 4} {
		s.Sys.MCU.IdlePower = power.Power(float64(base) * scale)
		atE := s.Sys.WatchLocalEnergy(s.AT).MilliJoules()
		smallE := s.Sys.WatchLocalEnergy(s.Small).MilliJoules()
		offE := s.Sys.WatchOffloadEnergy().MilliJoules()
		t.AddRow(fmt.Sprintf("%.1fx", scale),
			fmt.Sprintf("%.4f", atE), fmt.Sprintf("%.4f", smallE), fmt.Sprintf("%.4f", offE))
		metrics[fmt.Sprintf("at_mJ_x%g", scale)] = atE
	}
	return Artifact{ID: "A2", Title: "Ablation: idle power", Text: t.String(), Metrics: metrics}
}

// AblationQuantization compares the float32 and int8 deployments of the
// TCNs (DESIGN.md experiment A3): accuracy on the test subjects and the
// estimated watch energy, where float inference is charged ≈4x the cycles
// of the int8 CMSIS-NN-class kernels.
func AblationQuantization(s *Suite) Artifact {
	t := eval.NewTable("Ablation A3 — int8 vs float32 TCN deployment",
		"Model", "Mode", "MAE [BPM]", "Watch E [mJ]")
	metrics := map[string]float64{}
	const floatCyclePenalty = 4.0

	for _, m := range []*tcn.HRNet{s.Small, s.Big} {
		wasQuant := m.UseQuantized
		baseE := s.Sys.WatchLocalEnergy(m).MilliJoules()

		if m.Quantized() || wasQuant { // int8 row only when available
			m.UseQuantized = true
			int8MAE := testMAE(s, m)
			t.AddRow(m.Name(), "int8", fmt.Sprintf("%.2f", int8MAE), fmt.Sprintf("%.3f", baseE))
			metrics["int8_mae_"+m.Name()] = int8MAE
		}
		m.UseQuantized = false
		floatMAE := testMAE(s, m)
		t.AddRow(m.Name(), "float32", fmt.Sprintf("%.2f", floatMAE), fmt.Sprintf("%.3f", baseE*floatCyclePenalty))
		metrics["float_mae_"+m.Name()] = floatMAE
		m.UseQuantized = wasQuant
	}
	return Artifact{ID: "A3", Title: "Ablation: quantization", Text: t.String(), Metrics: metrics}
}

// testMAE evaluates an estimator over the suite's test windows directly
// (bypassing cached records, since the quantization mode changes outputs),
// in the activity-balanced form. The windows go through one batched call.
func testMAE(s *Suite, m *tcn.HRNet) float64 {
	preds := make([]float64, len(s.TestWindows))
	m.EstimateHRBatch(s.TestWindows, preds)
	perAct := make([][2]float64, dalia.NumActivities)
	for i := range s.TestWindows {
		w := &s.TestWindows[i]
		err := models.AbsError(preds[i], w.TrueHR)
		perAct[int(w.Activity)][0] += err
		perAct[int(w.Activity)][1]++
	}
	var bal float64
	var acts int
	for _, agg := range perAct { // slice order: deterministic sum
		if agg[1] > 0 {
			bal += agg[0] / agg[1]
			acts++
		}
	}
	if acts == 0 {
		return 0
	}
	return bal / float64(acts)
}
