package fleet

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/hw/power"
	"repro/internal/models"
	"repro/internal/models/rf"
	"repro/internal/reccache"
	"repro/internal/sim"
)

const daySeconds = 86400

// trainSubjects and trainScale size the shared difficulty forest's
// training set: three seed-forked synthetic subjects at a fixed duration
// scale (independent of Population.DayScale, so tuning the per-user
// recording size never retrains a different forest).
const (
	trainSubjects = 3
	trainScale    = 0.02
)

// Fleet is a validated fleet configuration bound to its derived shared
// state: the hardware models, the fleet-seed PRNG root, and the
// difficulty forest every user's windows are classified with once at
// setup. All shared state is read-only after New, so any number of
// workers can build and simulate users concurrently.
type Fleet struct {
	cfg      Config
	sys      *hw.System
	root     *faults.Rand
	rater    *rf.Classifier
	mixTotal float64
	// policy is the shared belief policy (nil when Belief.Enabled is
	// false): one transition prior learned from the training subjects,
	// read-only across workers — each user's sim.Run builds its own
	// Filter on top of it.
	policy *belief.Policy
}

// New validates cfg and builds the shared fleet state.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:      cfg,
		sys:      hw.NewSystem(),
		root:     faults.NewRand(cfg.Seed),
		mixTotal: cfg.Mix.totalWeight(),
	}
	dc := dalia.DefaultConfig()
	dc.Seed = int64(f.root.Fork("train").Seed())
	dc.Subjects = trainSubjects
	dc.DurationScale = trainScale
	var ws []dalia.Window
	for s := 0; s < dc.Subjects; s++ {
		rec, err := dalia.GenerateSubject(dc, s)
		if err != nil {
			return nil, fmt.Errorf("fleet: training subject %d: %w", s, err)
		}
		ws = append(ws, dalia.Windows(rec, dc.WindowSamples, dc.StrideSamples)...)
	}
	rater, err := rf.Train(ws, rf.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("fleet: training difficulty forest: %w", err)
	}
	f.rater = rater
	if cfg.Belief.Enabled {
		table, err := belief.LearnWindows(belief.DefaultGrid(), ws, belief.DefaultLearnConfig())
		if err != nil {
			return nil, fmt.Errorf("fleet: learning transition prior: %w", err)
		}
		// Observation noise per model comes from the zoo specs: the sigma
		// the filter assumes is exactly the sigma the surrogate injects.
		sigmas := make(map[string]belief.SigmaSpec, len(cfg.Models))
		for _, m := range cfg.Models {
			sigmas[m.Name] = belief.SigmaSpec{Base: m.BaseErr, Motion: m.MotionErr}
		}
		f.policy = &belief.Policy{
			Table:        table,
			Smooth:       cfg.Belief.Smooth,
			GateBPM:      cfg.Belief.GateBPM,
			Mass:         cfg.Belief.Mass,
			Sigmas:       sigmas,
			DefaultSigma: belief.SigmaSpec{Base: 3, Motion: 8},
		}
		if err := f.policy.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: belief policy: %w", err)
		}
	}
	return f, nil
}

// Config returns the validated configuration the fleet was built with.
func (f *Fleet) Config() Config { return f.cfg }

// System returns the shared hardware models (read-only).
func (f *Fleet) System() *hw.System { return f.sys }

// User is one fleet member's fully built simulation inputs. Everything in
// it derives from (Config, ID) alone via label-keyed seed forks.
type User struct {
	ID     int
	Cohort int
	// Relaxed records that the cohort's constraint was infeasible against
	// this user's personal profiles and was widened to "cheapest feasible"
	// (surfaced as the relaxed metric so the population rate is visible).
	Relaxed    bool
	Constraint core.Constraint
	// Windows are the user's unique analysis windows; sim.Run replays
	// them cyclically over the simulated horizon.
	Windows []dalia.Window
	// Engine holds the user's personal profiles (the surrogate zoo
	// profiled over their own windows) and the O(1) replay rater.
	Engine *core.Engine
	// Injector is the cohort scenario bound to the user's fault seed; nil
	// for the "none" cohort, which runs those users on the paper engine
	// (lossless transfers, immediate reselection; see sim.Step).
	Injector *faults.Injector

	meanHR float64
}

// replayModel is an HREstimator whose predictions were precomputed over
// one user's unique windows: EstimateHR is an index lookup keyed by the
// window's start offset, which is what holds the fleet tick loop at about
// 110 ns/window without fault injection (370 ns with it; traced perfbench
// fleet split, 2-vCPU Xeon). It only answers for the exact windows it was
// built on.
type replayModel struct {
	name        string
	ops, params int64
	stride      int
	preds       []float64
}

func (m *replayModel) Name() string  { return m.name }
func (m *replayModel) Ops() int64    { return m.ops }
func (m *replayModel) Params() int64 { return m.params }
func (m *replayModel) EstimateHR(w *dalia.Window) float64 {
	return m.preds[w.Start/m.stride]
}

// replayRater is the core.DifficultyRater counterpart: the shared forest's
// verdict per unique window, precomputed at user build time.
type replayRater struct {
	stride int
	ids    []int
}

func (r *replayRater) DifficultyID(w *dalia.Window) int {
	return r.ids[w.Start/r.stride]
}

// motionRMS is the gravity-free accelerometer RMS (g) driving the
// surrogate error model's motion term.
func motionRMS(w *dalia.Window) float64 {
	return math.Sqrt(w.AccelEnergy())
}

// relaxedConstraint is the fallback when a cohort bound is infeasible for
// a user's personal profiles: any profiled MAE passes, so SelectConfig
// degenerates to "cheapest feasible configuration" in both link states.
func relaxedConstraint() core.Constraint {
	return core.MAEConstraint(math.MaxFloat64)
}

// BuildUser derives user id from the fleet seed: cohort draw, physiology
// sampling, recording synthesis, difficulty classification, surrogate
// predictions, personal profiling, constraint feasibility and the fault
// injector. Every random quantity comes from a label-keyed fork of
// "user:<id>", so the result is a pure function of (Config, id) — fork
// order and sibling users cannot perturb it.
func (f *Fleet) BuildUser(id int) (*User, error) {
	if id < 0 || id >= f.cfg.Users {
		return nil, fmt.Errorf("fleet: user %d out of range 0..%d", id, f.cfg.Users-1)
	}
	u := f.root.Fork("user:" + strconv.Itoa(id))

	// Cohort assignment by weighted draw.
	draw := u.Fork("cohort").Float64() * f.mixTotal
	cohort := len(f.cfg.Mix) - 1
	acc := 0.0
	for i, c := range f.cfg.Mix {
		acc += c.Weight
		if draw < acc {
			cohort = i
			break
		}
	}

	// Physiology sampling.
	pop := f.cfg.Population
	ph := u.Fork("physio")
	coupling := pop.CouplingMedian * math.Exp(pop.CouplingSpread*ph.Norm())
	noise := pop.NoiseMin + (pop.NoiseMax-pop.NoiseMin)*ph.Float64()
	hrShift := pop.HRShiftSigma * ph.Norm()

	dc := dalia.DefaultConfig()
	dc.Seed = int64(u.Fork("dalia").Seed())
	dc.Subjects = 1
	dc.DurationScale = pop.DayScale
	dc.ArtifactCoupling = coupling
	dc.SensorNoise = noise
	dc.HRShift = hrShift
	rec, err := dalia.GenerateSubject(dc, 0)
	if err != nil {
		return nil, fmt.Errorf("fleet: user %d recording: %w", id, err)
	}
	ws := dalia.Windows(rec, dc.WindowSamples, dc.StrideSamples)
	if len(ws) == 0 {
		return nil, fmt.Errorf("fleet: user %d: DayScale %v yields no windows", id, pop.DayScale)
	}
	stride := dc.StrideSamples

	// Classify every unique window once; the rater then replays in O(1).
	ids := make([]int, len(ws))
	hrSum := 0.0
	for i := range ws {
		ids[i] = f.rater.DifficultyID(&ws[i])
		hrSum += ws[i].TrueHR
	}

	// Surrogate zoo: per-user bias plus motion-scaled noise around truth,
	// drawn per (model, window) in window order from the model's own fork.
	specs := f.cfg.Models
	names := make([]string, len(specs))
	ests := make([]models.HREstimator, len(specs))
	flat := make([]float64, len(ws)*len(specs))
	rms := make([]float64, len(ws))
	for i := range ws {
		rms[i] = motionRMS(&ws[i])
	}
	for mi, spec := range specs {
		names[mi] = spec.Name
		bias := spec.BiasSigma * u.Fork("model:"+spec.Name).Norm()
		errRng := u.Fork("err:" + spec.Name)
		preds := make([]float64, len(ws))
		for i := range ws {
			sigma := spec.BaseErr + spec.MotionErr*rms[i]
			preds[i] = models.ClampHR(ws[i].TrueHR + bias + sigma*errRng.Norm())
			flat[i*len(specs)+mi] = preds[i]
		}
		ests[mi] = &replayModel{name: spec.Name, ops: spec.Ops, params: spec.Params, stride: stride, preds: preds}
	}

	// Personal profiles: the full configuration space measured over the
	// user's own windows, so constraint selection reflects their personal
	// motion/noise mix rather than a population average.
	header := core.NewRecordHeader(names...)
	recs := make([]core.WindowRecord, len(ws))
	for i := range ws {
		recs[i] = core.WindowRecord{
			TrueHR:     ws[i].TrueHR,
			Activity:   ws[i].Activity,
			Difficulty: ids[i],
			Header:     header,
			Preds:      flat[i*len(specs) : (i+1)*len(specs) : (i+1)*len(specs)],
		}
	}
	zoo, err := core.NewZoo(ests...)
	if err != nil {
		return nil, fmt.Errorf("fleet: user %d zoo: %w", id, err)
	}
	profiles, err := core.ProfileConfigs(zoo.EnumerateConfigs(), recs, f.sys)
	if err != nil {
		return nil, fmt.Errorf("fleet: user %d profiling: %w", id, err)
	}
	engine, err := core.NewEngine(profiles, &replayRater{stride: stride, ids: ids})
	if err != nil {
		return nil, fmt.Errorf("fleet: user %d engine: %w", id, err)
	}

	// Constraint feasibility against the personal profiles, pre-checked
	// for both link states so reselection can never fail mid-run.
	constraint := f.cfg.Mix[cohort].Constraint()
	relaxed := false
	if _, err := engine.SelectConfig(true, constraint); err != nil {
		relaxed = true
	} else if _, err := engine.SelectConfig(false, constraint); err != nil {
		relaxed = true
	}
	if relaxed {
		constraint = relaxedConstraint()
	}

	var inj *faults.Injector
	if name := f.cfg.Mix[cohort].Scenario; name != "none" {
		sc, ok := faults.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fleet: user %d: unknown scenario %q", id, name)
		}
		if inj, err = faults.NewInjector(sc, u.Fork("faults").Seed()); err != nil {
			return nil, fmt.Errorf("fleet: user %d injector: %w", id, err)
		}
	}

	return &User{
		ID:         id,
		Cohort:     cohort,
		Relaxed:    relaxed,
		Constraint: constraint,
		Windows:    ws,
		Engine:     engine,
		Injector:   inj,
		meanHR:     hrSum / float64(len(ws)),
	}, nil
}

// UserResult is one simulated user: the raw sim.Result plus the reduced
// metric vector the aggregators ingest.
type UserResult struct {
	ID      int
	Cohort  int
	Relaxed bool
	Result  sim.Result
	Metrics [NumMetrics]float64
}

// liIonCapacityJ is the watch battery capacity the life projection is
// normalized against.
var liIonCapacityJ = float64(power.NewLiIon370().Capacity)

// SimConfig assembles the exact sim.Config a fleet run executes for this
// user — exposed so the single-user-extraction test can replay one user
// through sim.Run standalone and compare bitwise.
func (f *Fleet) SimConfig(u *User, battery *power.Battery) sim.Config {
	return sim.Config{
		System:          f.sys,
		Engine:          u.Engine,
		Constraint:      u.Constraint,
		Windows:         u.Windows,
		DurationSeconds: f.cfg.Days * daySeconds,
		Battery:         battery,
		IncludeSensors:  true,
		Faults:          u.Injector,
		Belief:          f.policy,
	}
}

// SimulateUser builds and simulates one user standalone. A fleet run is
// exactly this per user — the returned result is bitwise identical to the
// user's slice of a whole fleet run, regardless of worker count.
func (f *Fleet) SimulateUser(id int) (*UserResult, error) {
	return f.simulateUser(id, "", nil)
}

// errUserInterrupted signals that a segmented simulation observed the
// run's stop condition mid-day: the user's sidecar snapshot is durable on
// disk and no metric row may be written for them yet.
var errUserInterrupted = errors.New("fleet: user interrupted mid-day")

// simulateUser runs one user's simulation, segmented at SnapshotDays
// boundaries when statePath is non-empty: each boundary persists the
// sim.State as an atomic sidecar snapshot, resumes pick the sidecar up
// and continue mid-day, and segmentation is bitwise invisible in the
// finished result (the sim package's segmentation invariant). A corrupt,
// stale or unreadable sidecar degrades deterministically to a fresh full
// re-simulation of the user. interrupted is polled after each persisted
// segment; a true return abandons the user with errUserInterrupted.
func (f *Fleet) simulateUser(id int, statePath string, interrupted func() bool) (*UserResult, error) {
	u, err := f.BuildUser(id)
	if err != nil {
		return nil, err
	}
	scfg := f.SimConfig(u, power.NewLiIon370())
	var st sim.State
	if statePath == "" || f.cfg.SnapshotDays <= 0 {
		if err := sim.RunState(scfg, &st, 0); err != nil {
			return nil, fmt.Errorf("fleet: user %d simulation: %w", id, err)
		}
	} else {
		if data, rerr := os.ReadFile(statePath); rerr == nil {
			if dec, derr := sim.DecodeState(data, f.cfg.hash64()); derr == nil {
				st = *dec
			}
		}
		seg := f.cfg.SnapshotDays * daySeconds
		for !st.Done {
			if err := sim.RunState(scfg, &st, st.T+seg); err != nil {
				return nil, fmt.Errorf("fleet: user %d simulation: %w", id, err)
			}
			if st.Done {
				break
			}
			if err := reccache.WriteFileAtomic(statePath, sim.EncodeState(&st, f.cfg.hash64())); err != nil {
				return nil, fmt.Errorf("fleet: user %d snapshot: %w", id, err)
			}
			if interrupted != nil && interrupted() {
				return nil, errUserInterrupted
			}
		}
		// Completed: the checkpoint metric row supersedes the sidecar.
		os.Remove(statePath)
	}
	res := st.Res
	out := &UserResult{ID: id, Cohort: u.Cohort, Relaxed: u.Relaxed, Result: res}
	userMetrics(&res, u, &out.Metrics)
	return out, nil
}

// userMetrics reduces a sim.Result to the fleet metric vector. Rates are
// normalized by the actually simulated span, so an early battery death
// reports its true daily burn rather than a diluted one.
func userMetrics(res *sim.Result, u *User, m *[NumMetrics]float64) {
	windows := float64(res.Predictions + res.SkippedWindows)
	days := res.SimulatedSeconds / daySeconds
	m[MetricMeanHR] = u.meanHR
	m[MetricMAE] = res.MAE
	m[MetricFaultMAE] = res.FaultMAE
	if days > 0 {
		m[MetricEnergyDayMJ] = res.Watch.Total().MilliJoules() / days
		m[MetricPhoneDayMJ] = res.PhoneEnergy.MilliJoules() / days
	}
	if res.SimulatedSeconds > 0 && res.BatteryDrain > 0 {
		avgW := float64(res.BatteryDrain) / res.SimulatedSeconds
		m[MetricLifeH] = liIonCapacityJ / avgW / 3600
	}
	m[MetricSoCFinal] = res.FinalSoC
	if res.Predictions > 0 {
		p := float64(res.Predictions)
		m[MetricOffloadFrac] = float64(res.Offloaded) / p
		m[MetricSimpleFrac] = float64(res.SimpleRuns) / p
		m[MetricFallbackFrac] = float64(res.FallbackWindows) / p
		m[MetricFaultFrac] = float64(res.FaultWindows) / p
	}
	if windows > 0 {
		m[MetricSkippedFrac] = float64(res.SkippedWindows) / windows
	}
	if res.Predictions > 0 {
		m[MetricGatedFrac] = float64(res.GatedOffloads) / float64(res.Predictions)
	}
	m[MetricBeliefWidth] = res.BeliefWidthMean
	m[MetricBeliefCover] = res.BeliefCoverage
	m[MetricReselections] = float64(res.Reselections)
	m[MetricWindows] = windows
	if res.BatteryExhausted {
		m[MetricExhausted] = 1
	}
	if u.Relaxed {
		m[MetricRelaxed] = 1
	}
}
