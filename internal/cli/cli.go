package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"repro/internal/belief"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw/power"
)

// Flags are the flags every CLI has.
type Flags struct {
	Belief, JSON, Verbose bool
	Gate                  float64
}

// Pipeline adds the flags of the CLIs that build the paper suite.
type Pipeline struct {
	Flags
	Quick       bool
	MAE, Energy float64
	Faults      string
	Seed        int64
}

// Sim is chrissim's command line.
type Sim struct {
	Pipeline
	Hours, Dropout float64
	Sensors        bool
}

// Serve is chrisserve's command line.
type Serve struct {
	Pipeline
	Sessions, Cycles, CrashAfter int
	Seconds, Rate                float64
	Virtual, Resume              bool
	Checkpoint                   string
}

// Fleet is chrisfleet's command line; its own flags fill Config.
type Fleet struct {
	Flags
	Config fleet.Config
}

// ParseSim declares chrissim's flags on fs and parses and checks args.
func ParseSim(fs *flag.FlagSet, args []string) (*Sim, error) {
	o := &Sim{}
	c := o.declare(fs, "run the temporal belief filter (posterior-mean smoothing)")
	c.float(&o.Hours, "hours", 24, "simulated horizon in hours", "positive")
	c.float(&o.Dropout, "dropout", 0, "link dropout period in seconds (0 = always up)", "non-negative")
	fs.BoolVar(&o.Sensors, "sensors", true, "charge the PPG/IMU front end")
	return o, c.parse(args)
}

// ParseServe declares chrisserve's flags on fs and parses and checks args.
func ParseServe(fs *flag.FlagSet, args []string) (*Serve, error) {
	o := &Serve{}
	c := o.declare(fs, "run the per-session temporal belief filter")
	fs.IntVar(&o.Sessions, "sessions", 32, "concurrent user sessions")
	c.float(&o.Seconds, "seconds", 10, "wall-mode run duration", "positive")
	c.float(&o.Rate, "rate", 100, "wall-mode speedup over the 2 s window period", "positive")
	fs.BoolVar(&o.Virtual, "virtual", false, "deterministic lockstep mode (virtual clock)")
	fs.IntVar(&o.Cycles, "cycles", 64, "lockstep cycles in -virtual mode")
	fs.StringVar(&o.Checkpoint, "checkpoint", "", "engine snapshot file (virtual: every cycle, wall: every second)")
	fs.BoolVar(&o.Resume, "resume", false, "restore engine state from -checkpoint before running")
	fs.IntVar(&o.CrashAfter, "crashafter", 0, "virtual mode: SIGKILL self after checkpointing cycle N (CI crash gate)")
	c.checks = append(c.checks, func() error {
		switch {
		case o.Sessions < 1:
			return fmt.Errorf("-sessions %d < 1", o.Sessions)
		case o.Cycles < 1:
			return fmt.Errorf("-cycles %d < 1", o.Cycles)
		case o.CrashAfter < 0:
			return fmt.Errorf("-crashafter %d is negative", o.CrashAfter)
		case o.Resume && o.Checkpoint == "":
			return errors.New("-resume requires -checkpoint")
		case o.CrashAfter == 0:
			return nil
		case o.Checkpoint == "":
			return errors.New("-crashafter requires -checkpoint")
		case !o.Virtual:
			return errors.New("-crashafter requires -virtual (wall mode checkpoints on its own cadence)")
		case o.CrashAfter >= o.Cycles:
			return fmt.Errorf("-crashafter %d must be below -cycles %d", o.CrashAfter, o.Cycles)
		}
		return nil
	})
	return o, c.parse(args)
}

// ParseFleet declares chrisfleet's flags on fs and parses args into a
// Config that fleet.Config.Validate accepts.
func ParseFleet(fs *flag.FlagSet, args []string) (*Fleet, error) {
	o := &Fleet{Config: fleet.DefaultConfig()}
	c := o.declare(fs, "run the per-user temporal belief filter (posterior-mean smoothing)", "summary")
	cfg := &o.Config
	fs.IntVar(&cfg.Users, "users", 1000, "fleet size")
	fs.Float64Var(&cfg.Days, "days", 1, "simulated horizon per user in days")
	mix := fs.String("mix", "", "cohort mix as scenario:constraint:weight,... (empty = default)")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "fleet seed (replayable)")
	fs.IntVar(&cfg.Workers, "workers", 0, "simulation workers (0 = GOMAXPROCS)")
	fs.StringVar(&cfg.Checkpoint, "checkpoint", "", "checkpoint file for crash-safe progress (empty = none)")
	fs.BoolVar(&cfg.Resume, "resume", false, "resume an interrupted run from -checkpoint")
	fs.Float64Var(&cfg.SnapshotDays, "snapdays", 0, "mid-day sidecar snapshot cadence in simulated days (0 = off; requires -checkpoint)")
	c.checks = append(c.checks, func() error {
		if *mix != "" {
			m, err := fleet.ParseMix(*mix)
			if err != nil {
				return err
			}
			cfg.Mix = m
		}
		if o.BeliefOn() {
			cfg.Belief = fleet.BeliefConfig{Enabled: true, Smooth: true, GateBPM: o.Gate}
		}
		return cfg.Validate()
	})
	return o, c.parse(args)
}

// BeliefOn reports whether -belief or a positive -gate asks for the
// belief filter.
func (f *Flags) BeliefOn() bool { return f.Belief || f.Gate > 0 }

// Print writes v to stdout as indented JSON under -json, exiting 1 if
// that fails; otherwise it calls text, which prints the CLI's report.
func (f *Flags) Print(v any, text func()) {
	if !f.JSON {
		text()
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

// Scenario returns the -faults scenario, or nil for a fault-free run.
func (p *Pipeline) Scenario() *faults.Scenario {
	if sc, ok := faults.ByName(p.Faults); ok {
		return &sc
	}
	return nil
}

// Run is what chrissim and chrisserve run: the paper suite, the CHRIS
// engine over its profiles, the constraint and the belief policy.
type Run struct {
	Suite      *bench.Suite
	Engine     *core.Engine
	Constraint core.Constraint
	Belief     *belief.Policy // nil when the belief filter is off
}

// Build builds the suite (scaled down under -quick, logging its progress
// under -v) and the engine; the constraint is the -mae bound when
// positive, else the -energy bound, and the policy is gated at -gate.
func (p *Pipeline) Build() (*Run, error) {
	cfg := bench.DefaultSuiteConfig()
	if p.Quick {
		cfg = bench.QuickSuiteConfig()
	}
	if p.Verbose {
		cfg.Progress = log.Printf
	}
	suite, err := bench.NewSuite(cfg)
	if err != nil {
		return nil, err
	}
	r := &Run{Suite: suite, Constraint: core.EnergyConstraint(power.MilliJoules(p.Energy))}
	if p.MAE > 0 {
		r.Constraint = core.MAEConstraint(p.MAE)
	}
	if r.Engine, err = core.NewEngine(suite.Profiles, suite.Classifier); err != nil {
		return nil, err
	}
	if p.BeliefOn() {
		if r.Belief, err = suite.BeliefPolicy(); err != nil {
			return nil, err
		}
		r.Belief.GateBPM = p.Gate
	}
	return r, nil
}

// declare registers the shared flags; output names what -json emits.
func (f *Flags) declare(fs *flag.FlagSet, beliefUsage, output string) *checker {
	c := &checker{fs: fs}
	fs.BoolVar(&f.Belief, "belief", false, beliefUsage)
	c.float(&f.Gate, "gate", 0, "uncertainty-gate threshold in BPM (0 = gating off; implies -belief)", "non-negative")
	fs.BoolVar(&f.JSON, "json", false, "emit the "+output+" as JSON instead of text")
	fs.BoolVar(&f.Verbose, "v", false, "progress logging")
	return c
}

func (p *Pipeline) declare(fs *flag.FlagSet, beliefUsage string) *checker {
	c := p.Flags.declare(fs, beliefUsage, "result")
	names := strings.Join(faults.Names(), "|")
	fs.BoolVar(&p.Quick, "quick", true, "use the scaled-down pipeline (fast)")
	c.float(&p.MAE, "mae", 0, "MAE constraint in BPM (0 = use energy bound)", "non-negative")
	c.float(&p.Energy, "energy", 0.3, "energy constraint in mJ when -mae is 0", "positive")
	fs.StringVar(&p.Faults, "faults", "", "fault scenario: "+names+" (empty = fault-free)")
	fs.Int64Var(&p.Seed, "seed", 1, "fault-injection seed (replayable, non-negative)")
	c.checks = append(c.checks, func() error {
		if p.Seed < 0 {
			return fmt.Errorf("-seed %d is negative; seeds are non-negative", p.Seed)
		}
		if p.Faults != "" && p.Scenario() == nil {
			return fmt.Errorf("-faults: unknown fault scenario %q (have %s)", p.Faults, names)
		}
		return nil
	})
	return c
}

// checker holds a flag set and the checks its parse runs, in order.
type checker struct {
	fs     *flag.FlagSet
	checks []func() error
}

// float declares a float flag that must be finite and, by sign, either
// "positive" or "non-negative".
func (c *checker) float(p *float64, name string, value float64, usage, sign string) {
	c.fs.Float64Var(p, name, value, usage)
	c.checks = append(c.checks, func() error {
		if v := *p; v > 0 && !math.IsInf(v, 1) || v == 0 && sign == "non-negative" {
			return nil
		}
		return fmt.Errorf("-%s %g must be %s and finite", name, *p, sign)
	})
}

func (c *checker) parse(args []string) error {
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	for _, check := range c.checks {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}
