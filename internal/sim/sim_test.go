package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/hw/ble"
	"repro/internal/hw/power"
	"repro/internal/models"
	"repro/internal/models/rf"
)

type biasEst struct {
	name string
	ops  int64
	bias float64
}

func (b *biasEst) Name() string                       { return b.name }
func (b *biasEst) Ops() int64                         { return b.ops }
func (b *biasEst) Params() int64                      { return 0 }
func (b *biasEst) EstimateHR(w *dalia.Window) float64 { return models.ClampHR(w.TrueHR + b.bias) }

// fixture builds a small engine over fake models plus real windows/RF.
func fixture(t testing.TB) (*hw.System, *core.Engine, []dalia.Window) {
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
	simple := &biasEst{name: "cheap", ops: 3_000, bias: 8}
	complex := &biasEst{name: "best", ops: 12_000_000, bias: 2}
	sys := hw.NewSystem()

	header := core.NewRecordHeader("cheap", "best")
	recs := make([]core.WindowRecord, len(ws))
	for i := range ws {
		recs[i] = core.WindowRecord{
			TrueHR:     ws[i].TrueHR,
			Activity:   ws[i].Activity,
			Difficulty: cls.DifficultyID(&ws[i]),
			Header:     header,
			Preds:      []float64{ws[i].TrueHR + 8, ws[i].TrueHR + 2},
		}
	}
	zoo, err := core.NewZoo(simple, complex)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := core.ProfileConfigs(zoo.EnumerateConfigs(), recs, sys)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(profiles, cls)
	if err != nil {
		t.Fatal(err)
	}
	return sys, engine, ws
}

func TestRunBasics(t *testing.T) {
	sys, engine, ws := fixture(t)
	res, err := Run(Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Windows:         ws,
		DurationSeconds: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Predictions != 300 {
		t.Errorf("predictions = %d, want 300 (600 s / 2 s)", res.Predictions)
	}
	if res.MAE <= 0 || res.MAE > 10 {
		t.Errorf("MAE = %v out of expected range", res.MAE)
	}
	if res.Watch.Total() <= 0 {
		t.Error("no watch energy accumulated")
	}
	if res.ActiveConfig == "" {
		t.Error("no active config recorded")
	}
}

func TestRunEnergyBreakdownConsistency(t *testing.T) {
	sys, engine, ws := fixture(t)
	bat := power.NewLiIon370()
	res, err := Run(Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Windows:         ws,
		DurationSeconds: 300,
		Battery:         bat,
		IncludeSensors:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Battery drain must equal total watch energy through the converter.
	want := float64(res.Watch.Total()) / 0.9
	if math.Abs(float64(res.BatteryDrain)-want) > 1e-9 {
		t.Errorf("battery drain %v, want %v", float64(res.BatteryDrain), want)
	}
	if res.Watch.Sensors <= 0 {
		t.Error("sensors not charged")
	}
	drained := float64(power.NewLiIon370().Capacity) - float64(bat.Remaining())
	if math.Abs(drained-float64(res.BatteryDrain)) > 1e-9 {
		t.Errorf("battery bookkeeping mismatch: %v vs %v", drained, res.BatteryDrain)
	}
}

func TestRunLinkDropoutForcesLocal(t *testing.T) {
	sys, engine, ws := fixture(t)
	// Link up for 100 s, down for 100 s, up again.
	tr, err := ble.NewConnectivityTrace(true, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Trace:           tr,
		Windows:         ws,
		DurationSeconds: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reselections != 2 {
		t.Errorf("reselections = %d, want 2", res.Reselections)
	}
	if res.LinkDownWindows != 50 {
		t.Errorf("link-down windows = %d, want 50", res.LinkDownWindows)
	}
}

func TestRunSkipsWhenBusy(t *testing.T) {
	sys, engine, ws := fixture(t)
	// Shrink the period below the complex model's local compute time
	// (12 M ops × 17.6 cyc/op / 64 MHz ≈ 3.3 s) with a strict constraint
	// that forces the complex model locally.
	sys.PeriodSeconds = 1.0
	res, err := Run(Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(2.5), // only "best"-heavy configs
		Trace:           mustTrace(t, false),     // link down → local only
		Windows:         ws,
		DurationSeconds: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedWindows == 0 {
		t.Error("expected skipped windows when compute exceeds the period")
	}
	if res.Predictions+res.SkippedWindows != 120 {
		t.Errorf("windows accounted %d+%d, want 120", res.Predictions, res.SkippedWindows)
	}
}

func mustTrace(t *testing.T, startUp bool) *ble.ConnectivityTrace {
	t.Helper()
	tr, err := ble.NewConnectivityTrace(startUp)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunBatteryExhaustion(t *testing.T) {
	sys, engine, ws := fixture(t)
	bat := power.NewLiIon370()
	// Pre-drain to a sliver so the run exhausts it.
	if err := bat.Drain(bat.Capacity - power.MicroJoules(500)); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Windows:         ws,
		DurationSeconds: 3600,
		Battery:         bat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BatteryExhausted {
		t.Error("battery should be exhausted")
	}
	if res.FinalSoC != 0 {
		t.Errorf("final SoC = %v, want 0", res.FinalSoC)
	}
	if res.SimulatedSeconds >= 3600 {
		t.Error("run should stop early on exhaustion")
	}
}

func TestRunValidation(t *testing.T) {
	sys, engine, ws := fixture(t)
	if _, err := Run(Config{Engine: engine, Windows: ws, DurationSeconds: 10}); err == nil {
		t.Error("missing system accepted")
	}
	if _, err := Run(Config{System: sys, Engine: engine, DurationSeconds: 10}); err == nil {
		t.Error("missing windows accepted")
	}
	if _, err := Run(Config{System: sys, Engine: engine, Windows: ws}); err == nil {
		t.Error("zero duration accepted")
	}
	// Infeasible constraint with the link down everywhere.
	if _, err := Run(Config{
		System: sys, Engine: engine, Windows: ws, DurationSeconds: 10,
		Constraint: core.MAEConstraint(0.01),
	}); err == nil {
		t.Error("infeasible constraint accepted")
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{Compute: 1, Radio: 2, Idle: 3, Sensors: 4}
	if b.Total() != 10 {
		t.Errorf("Total = %v", b.Total())
	}
	if !strings.Contains(power.Energy(1).String(), "J") {
		t.Error("energy String broken")
	}
}

// TestRunCleanTraceGolden pins the paper engine (nil injector) on a
// toggling link: immediate reselection at every edge, lossless offloads,
// with sensors, belief gating and a battery on. The expected Result is a
// JSON golden, so any drift in the clean loop's arithmetic shows up
// bitwise.
func TestRunCleanTraceGolden(t *testing.T) {
	sys, engine, ws := fixture(t)
	tr, err := ble.NewConnectivityTrace(true, 100, 200, 400, 460, 900, 1300)
	if err != nil {
		t.Fatal(err)
	}
	pol := beliefPolicy(t, ws)
	pol.GateBPM = 40
	res, err := Run(Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Trace:           tr,
		Windows:         ws,
		DurationSeconds: 2000,
		Battery:         power.NewLiIon370(),
		IncludeSensors:  true,
		Belief:          pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "clean_trace_result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), got) {
		t.Errorf("clean trace result drifted from the golden:\n%s", got)
	}
}

// TestRunAllocsPerRunNotPerWindow: a simulation's allocations — the
// Step with its two configuration names, the injector's streams, the
// Result — belong to the run, so doubling the simulated time must not
// add allocations in proportion to the added windows. This is what the
// SimRun1h kernels' 1 alloc/window (the ledger rounds a run's handful up
// per window) stands for. The bound is one allocation per hundred added
// windows rather than zero, because the race detector's runtime makes a
// few allocations of its own that vary from run to run.
func TestRunAllocsPerRunNotPerWindow(t *testing.T) {
	sys, engine, ws := fixture(t)
	for _, withFaults := range []bool{false, true} {
		allocs := func(seconds float64) float64 {
			return testing.AllocsPerRun(3, func() {
				cfg := Config{
					System:          sys,
					Engine:          engine,
					Constraint:      core.MAEConstraint(6),
					Windows:         ws,
					DurationSeconds: seconds,
					IncludeSensors:  true,
				}
				if withFaults {
					inj, err := faults.NewInjector(faults.WorstCase(), 7)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Faults = inj
				}
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		hourWindows := 3600 / sys.PeriodSeconds
		if hour, twoHours := allocs(3600), allocs(7200); twoHours-hour > hourWindows/100 {
			t.Errorf("faults=%v: %v allocations for one simulated hour, %v for two", withFaults, hour, twoHours)
		}
	}
}
