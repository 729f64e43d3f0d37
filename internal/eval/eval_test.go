package eval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dalia"
	"repro/internal/models"
	"repro/internal/models/rf"
)

type biasEst struct {
	name string
	bias float64
}

func (b *biasEst) Name() string                       { return b.name }
func (b *biasEst) Ops() int64                         { return 1000 }
func (b *biasEst) Params() int64                      { return 0 }
func (b *biasEst) EstimateHR(w *dalia.Window) float64 { return w.TrueHR + b.bias }

var _ models.HREstimator = (*biasEst)(nil)

func windowsAndClassifier(t *testing.T) ([]dalia.Window, *rf.Classifier) {
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
	cls, err := rf.Train(ws, rf.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ws, cls
}

func TestBuildRecords(t *testing.T) {
	ws, cls := windowsAndClassifier(t)
	zoo := []models.HREstimator{&biasEst{name: "a", bias: 3}, &biasEst{name: "b", bias: -1}}
	recs, err := BuildRecords(ws, zoo, cls)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ws) {
		t.Fatalf("got %d records for %d windows", len(recs), len(ws))
	}
	for i, r := range recs {
		if r.Difficulty < 1 || r.Difficulty > dalia.NumActivities {
			t.Fatalf("record %d difficulty %d out of range", i, r.Difficulty)
		}
		p, ok := r.Pred("a")
		if !ok || math.Abs(p-(r.TrueHR+3)) > 1e-9 {
			t.Fatalf("record %d prediction wrong (%v, %v)", i, p, ok)
		}
		if r.Activity != ws[i].Activity {
			t.Fatalf("record %d activity mismatch", i)
		}
	}
}

func TestBuildRecordsErrors(t *testing.T) {
	ws, cls := windowsAndClassifier(t)
	zoo := []models.HREstimator{&biasEst{name: "a"}}
	if _, err := BuildRecords(nil, zoo, cls); err == nil {
		t.Error("no windows accepted")
	}
	if _, err := BuildRecords(ws, nil, cls); err == nil {
		t.Error("no models accepted")
	}
	if _, err := BuildRecords(ws, zoo, nil); err == nil {
		t.Error("nil classifier accepted")
	}
}

func TestEvaluatePredictionsConstantBias(t *testing.T) {
	ws, _ := windowsAndClassifier(t)
	preds := make([]float64, len(ws))
	for i := range ws {
		preds[i] = ws[i].TrueHR + 4
	}
	rep, err := EvaluatePredictions("const", preds, ws)
	if err != nil {
		t.Fatal(err)
	}
	// A constant-bias model has MAE 4 in every view.
	if math.Abs(rep.MAE-4) > 1e-9 || math.Abs(rep.OverallMAE-4) > 1e-9 {
		t.Errorf("MAE = %v / %v, want 4", rep.MAE, rep.OverallMAE)
	}
	if len(rep.PerActivity) == 0 || rep.Windows != len(ws) {
		t.Error("report incomplete")
	}
	for a, v := range rep.PerActivity {
		if math.Abs(v-4) > 1e-9 {
			t.Errorf("activity %v MAE = %v", a, v)
		}
	}
}

func TestBalancedDiffersFromOverall(t *testing.T) {
	// Hand-built windows: 3 sitting windows with error 1, 1 soccer window
	// with error 9 → overall (3·1+9)/4 = 3, balanced (1+9)/2 = 5.
	mk := func(act dalia.Activity, hr float64) dalia.Window {
		return dalia.Window{Activity: act, TrueHR: hr}
	}
	ws := []dalia.Window{
		mk(dalia.Sitting, 70), mk(dalia.Sitting, 70), mk(dalia.Sitting, 70),
		mk(dalia.TableSoccer, 120),
	}
	preds := []float64{71, 71, 71, 129}
	rep, err := EvaluatePredictions("x", preds, ws)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.OverallMAE-3) > 1e-9 {
		t.Errorf("overall = %v, want 3", rep.OverallMAE)
	}
	if math.Abs(rep.MAE-5) > 1e-9 {
		t.Errorf("balanced = %v, want 5", rep.MAE)
	}
	if _, err := EvaluatePredictions("x", preds[:2], ws); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "Model", "MAE", "Energy")
	tb.AddRow("AT", "10.99", "0.234")
	tb.AddRow("Small", "5.60", "0.735")
	s := tb.String()
	for _, want := range []string{"Table X", "Model", "AT", "Small", "0.735", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	// Short rows padded, not panicking.
	tb.AddRow("only-model")
	_ = tb.String()
}
