// Command chrisserve runs the streaming multi-session inference engine
// (internal/serve): many simulated users submit PPG windows
// concurrently, the engine coalesces them into wide GEMM batches, and
// per-session robustness — backpressure, shedding, deadline discard,
// panic supervision — is exercised end to end.
//
// Usage:
//
//	chrisserve [-quick] [-sessions 32] [-seconds 10] [-rate 100]
//	           [-faults commute|gym|worstcase|none] [-seed 1]
//	           [-mae 6.0] [-virtual] [-cycles 64] [-belief] [-gate 0]
//	           [-checkpoint file] [-resume] [-crashafter 0]
//	           [-json] [-v]
//
// Two clocks, one engine:
//
//   - wall mode (default) free-runs the pump at real time, accelerated
//     by -rate (a rate of 100 submits the 2-second prediction windows
//     every 20 ms), and reports p50/p99 window latency and
//     sessions-per-core at steady state;
//   - -virtual runs the identical machinery in deterministic lockstep:
//     the same -sessions/-cycles/-faults/-seed always produce
//     byte-identical -json output, which CI uses as a replay gate.
//
// Durability: -checkpoint snapshots the complete engine state — after
// every quiesced cycle in virtual mode, on a wall-clock cadence in wall
// mode — with the atomic partial-file+rename discipline. -resume
// restores the snapshot before running; a virtual run killed mid-way
// (even with SIGKILL: -crashafter N self-kills after checkpointing
// cycle N, which is the CI crash-recovery gate) and resumed under the
// same flags emits -json output byte-identical to a run that never
// crashed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw/power"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chrisserve: ")

	quick := flag.Bool("quick", true, "use the scaled-down pipeline (fast)")
	nSessions := flag.Int("sessions", 32, "concurrent user sessions")
	seconds := flag.Float64("seconds", 10, "wall-mode run duration")
	rate := flag.Float64("rate", 100, "wall-mode speedup over the 2 s window period")
	faultsName := flag.String("faults", "", "fault scenario: "+strings.Join(faults.Names(), "|")+" (empty = fault-free)")
	seed := flag.Int64("seed", 1, "fault-injection seed (replayable, non-negative)")
	maeBound := flag.Float64("mae", 0, "MAE constraint in BPM (0 = use energy bound)")
	energyBound := flag.Float64("energy", 0.3, "energy constraint in mJ when -mae is 0")
	virtual := flag.Bool("virtual", false, "deterministic lockstep mode (virtual clock)")
	cycles := flag.Int("cycles", 64, "lockstep cycles in -virtual mode")
	useBelief := flag.Bool("belief", false, "run the per-session temporal belief filter")
	gateBPM := flag.Float64("gate", 0, "uncertainty-gate threshold in BPM (0 = gating off; implies -belief)")
	checkpoint := flag.String("checkpoint", "", "engine snapshot file (virtual: every cycle, wall: every second)")
	resume := flag.Bool("resume", false, "restore engine state from -checkpoint before running")
	crashAfter := flag.Int("crashafter", 0, "virtual mode: SIGKILL self after checkpointing cycle N (CI crash gate)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of text")
	verbose := flag.Bool("v", false, "progress logging")
	flag.Parse()

	// Validate cheap inputs — including every flag combination — before
	// the expensive suite build: a bad -gate or an orphan -resume must
	// fail in milliseconds, not after minutes of dataset generation.
	var scenario *faults.Scenario
	if *faultsName != "" {
		sc, ok := faults.ByName(*faultsName)
		if !ok {
			log.Fatalf("unknown fault scenario %q (have %s)", *faultsName, strings.Join(faults.Names(), "|"))
		}
		scenario = &sc
	}
	if *seed < 0 {
		log.Fatalf("-seed %d is negative; seeds are non-negative", *seed)
	}
	if *nSessions < 1 {
		log.Fatalf("-sessions %d < 1", *nSessions)
	}
	if *rate <= 0 {
		log.Fatalf("-rate %g must be positive", *rate)
	}
	if *seconds <= 0 {
		log.Fatalf("-seconds %g must be positive", *seconds)
	}
	if *cycles < 1 {
		log.Fatalf("-cycles %d < 1", *cycles)
	}
	if *gateBPM < 0 {
		log.Fatalf("-gate %g is negative", *gateBPM)
	}
	if *resume && *checkpoint == "" {
		log.Fatal("-resume requires -checkpoint")
	}
	switch {
	case *crashAfter < 0:
		log.Fatalf("-crashafter %d is negative", *crashAfter)
	case *crashAfter > 0 && *checkpoint == "":
		log.Fatal("-crashafter requires -checkpoint")
	case *crashAfter > 0 && !*virtual:
		log.Fatal("-crashafter requires -virtual (wall mode checkpoints on its own cadence)")
	case *crashAfter >= *cycles && *crashAfter > 0:
		log.Fatalf("-crashafter %d must be below -cycles %d", *crashAfter, *cycles)
	}

	cfg := bench.DefaultSuiteConfig()
	if *quick {
		cfg = bench.QuickSuiteConfig()
	}
	if *verbose {
		cfg.Progress = func(format string, args ...interface{}) { log.Printf(format, args...) }
	}
	suite, err := bench.NewSuite(cfg)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := core.NewEngine(suite.Profiles, suite.Classifier)
	if err != nil {
		log.Fatal(err)
	}

	constraint := core.EnergyConstraint(power.MilliJoules(*energyBound))
	if *maeBound > 0 {
		constraint = core.MAEConstraint(*maeBound)
	}
	sCfg := serve.Config{
		Engine:     engine,
		System:     suite.Sys,
		Constraint: constraint,
		Faults:     scenario,
		FaultSeed:  uint64(*seed),
	}
	if *useBelief || *gateBPM > 0 {
		pol, err := suite.BeliefPolicy()
		if err != nil {
			log.Fatal(err)
		}
		pol.GateBPM = *gateBPM
		sCfg.Belief = pol
	}

	var rep report
	if *virtual {
		rep, err = runVirtual(sCfg, suite.TestWindows, *nSessions, *cycles, *checkpoint, *resume, *crashAfter)
	} else {
		rep, err = runWall(sCfg, suite.TestWindows, *nSessions, *seconds, *rate, *checkpoint, *resume, *verbose)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		return
	}
	rep.print()
}

// sessionReport is one session's slice of the run output. Results are
// included only in virtual mode, where they are the replay-gate payload.
type sessionReport struct {
	ID      string               `json:"id"`
	Stats   serve.SessionStats   `json:"stats"`
	Results []serve.WindowResult `json:"results,omitempty"`
}

// report is the run summary, stable for -json consumers.
type report struct {
	Mode          string          `json:"mode"`
	Sessions      int             `json:"sessions"`
	Scenario      string          `json:"scenario"`
	Seed          uint64          `json:"seed"`
	Windows       uint64          `json:"windows"`
	Discarded     uint64          `json:"discarded"`
	P50LatencyMS  float64         `json:"p50_latency_ms"`
	P99LatencyMS  float64         `json:"p99_latency_ms"`
	WindowsPerSec float64         `json:"windows_per_sec,omitempty"`
	SessionsCore  float64         `json:"sessions_per_core,omitempty"`
	PerSession    []sessionReport `json:"per_session"`
}

func (r report) print() {
	fmt.Printf("mode: %s, %d sessions, scenario %q (seed %d)\n", r.Mode, r.Sessions, r.Scenario, r.Seed)
	fmt.Printf("windows finished:     %d (%d discarded)\n", r.Windows, r.Discarded)
	fmt.Printf("window latency:       p50 %.3f ms, p99 %.3f ms\n", r.P50LatencyMS, r.P99LatencyMS)
	if r.WindowsPerSec > 0 {
		fmt.Printf("throughput:           %.0f windows/s, %.1f sessions/core\n", r.WindowsPerSec, r.SessionsCore)
	}
	var tot serve.SessionStats
	for _, s := range r.PerSession {
		tot.FullRuns += s.Stats.FullRuns
		tot.SimpleRuns += s.Stats.SimpleRuns
		tot.FallbackWindows += s.Stats.FallbackWindows
		tot.ShedWindows += s.Stats.ShedWindows
		tot.Expired += s.Stats.Expired
		tot.Late += s.Stats.Late
		tot.Dropped += s.Stats.Dropped
		tot.Retries += s.Stats.Retries
		tot.SupervisionDrops += s.Stats.SupervisionDrops
		tot.GatedWindows += s.Stats.GatedWindows
	}
	fmt.Printf("outcomes:             full %d, simple %d, fallback %d, shed %d, expired %d, late %d, dropped %d\n",
		tot.FullRuns, tot.SimpleRuns, tot.FallbackWindows, tot.ShedWindows, tot.Expired, tot.Late, tot.Dropped)
	fmt.Printf("offload faults:       %d retries, %d supervision drops\n", tot.Retries, tot.SupervisionDrops)
	if tot.GatedWindows > 0 {
		fmt.Printf("belief-gated windows: %d\n", tot.GatedWindows)
	}
}

// runVirtual is the lockstep replay: one window per session per cycle,
// deterministic byte-for-byte under equal flags. With a checkpoint path
// the engine snapshots after every quiesced cycle; with resume it
// restores the snapshot first and continues from the checkpointed cycle,
// byte-identical to a run that never stopped. crashAfter > 0 SIGKILLs
// the process right after cycle crashAfter's checkpoint lands — the
// hardest crash the host can deliver — for the CI recovery gate.
func runVirtual(cfg serve.Config, ws []dalia.Window, nSessions, cycles int, checkpoint string, resume bool, crashAfter int) (report, error) {
	vc := serve.NewVirtualClock()
	cfg.Clock = vc
	e, err := serve.Open(cfg)
	if err != nil {
		return report{}, err
	}
	start := 0
	if resume {
		if err := e.RestoreFile(checkpoint); err != nil {
			return report{}, fmt.Errorf("resume: %w", err)
		}
		// The restored clock sits at the checkpoint instant; the next
		// cycle index is its quotient by the window period.
		start = int(vc.Now()/cfg.System.PeriodSeconds + 0.5)
	}
	sessions := make([]*serve.Session, nSessions)
	for i := range sessions {
		id := fmt.Sprintf("u%04d", i)
		if s := e.Session(id); s != nil {
			sessions[i] = s
			continue
		}
		s, err := e.NewSession(id)
		if err != nil {
			return report{}, err
		}
		sessions[i] = s
	}
	for c := start; c < cycles; c++ {
		for i, s := range sessions {
			w := &ws[(i*cycles+c)%len(ws)]
			s.Submit(w, vc.Now())
		}
		e.Tick()
		vc.Advance(cfg.System.PeriodSeconds)
		if checkpoint != "" {
			if err := e.Checkpoint(checkpoint); err != nil {
				return report{}, err
			}
			if crashAfter > 0 && c+1 == crashAfter {
				crashSelf()
			}
		}
	}
	if err := e.Close(); err != nil {
		return report{}, err
	}
	rep := report{Mode: "virtual", Sessions: nSessions, Seed: cfg.FaultSeed, Scenario: scenarioName(cfg)}
	var lat []float64
	for _, s := range sessions {
		res := s.Drain()
		st := s.Stats()
		rep.Windows += st.Finished()
		for _, r := range res {
			if r.Outcome.Discarded() {
				rep.Discarded++
			}
			lat = append(lat, r.Latency)
		}
		rep.PerSession = append(rep.PerSession, sessionReport{ID: s.ID(), Stats: st, Results: res})
	}
	rep.P50LatencyMS = percentile(lat, 0.50) * 1e3
	rep.P99LatencyMS = percentile(lat, 0.99) * 1e3
	return rep, nil
}

// runWall free-runs the engine against real time with per-session
// submitter goroutines at the accelerated window period. A checkpoint
// path turns on the engine's own auto-checkpoint cadence; resume
// restores the previous snapshot first (a missing file is a first boot,
// not an error).
func runWall(cfg serve.Config, ws []dalia.Window, nSessions int, seconds, rate float64, checkpoint string, resume bool, verbose bool) (report, error) {
	cfg.FlushSeconds = cfg.System.PeriodSeconds / rate / 4
	cfg.CheckpointPath = checkpoint
	// Read before Open so the pump's first auto-checkpoint of the empty
	// engine cannot clobber the snapshot we are about to restore.
	var resumeData []byte
	if resume {
		var err error
		if resumeData, err = os.ReadFile(checkpoint); err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				return report{}, fmt.Errorf("resume: %w", err)
			}
			resumeData = nil
		}
	}
	e, err := serve.Open(cfg)
	if err != nil {
		return report{}, err
	}
	if resumeData != nil {
		if err := e.Restore(resumeData); err != nil {
			return report{}, fmt.Errorf("resume: %w", err)
		}
	}
	sessions := make([]*serve.Session, nSessions)
	for i := range sessions {
		id := fmt.Sprintf("u%04d", i)
		if s := e.Session(id); s != nil {
			sessions[i] = s
			continue
		}
		s, err := e.NewSession(id)
		if err != nil {
			return report{}, err
		}
		sessions[i] = s
	}
	period := time.Duration(cfg.System.PeriodSeconds / rate * float64(time.Second))
	stop := make(chan struct{})
	time.AfterFunc(time.Duration(seconds*float64(time.Second)), func() { close(stop) })
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *serve.Session) {
			defer wg.Done()
			t := time.NewTicker(period)
			defer t.Stop()
			k := 0
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				s.SubmitNow(&ws[(i+k*nSessions)%len(ws)])
				k++
			}
		}(i, s)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err := e.Close(); err != nil {
		return report{}, err
	}
	rep := report{Mode: "wall", Sessions: nSessions, Seed: cfg.FaultSeed, Scenario: scenarioName(cfg)}
	var lat []float64
	for _, s := range sessions {
		res := s.Drain()
		st := s.Stats()
		rep.Windows += st.Finished()
		for _, r := range res {
			if r.Outcome.Discarded() {
				rep.Discarded++
			}
			lat = append(lat, r.Latency)
		}
		// Results are dropped in wall mode: timing-dependent, not replayable.
		rep.PerSession = append(rep.PerSession, sessionReport{ID: s.ID(), Stats: st})
	}
	rep.P50LatencyMS = percentile(lat, 0.50) * 1e3
	rep.P99LatencyMS = percentile(lat, 0.99) * 1e3
	if elapsed > 0 {
		rep.WindowsPerSec = float64(rep.Windows) / elapsed
		// sessions/core at real-time cadence: how many 2 s streams one
		// core sustains, extrapolated from the accelerated run.
		perCoreThroughput := rep.WindowsPerSec / float64(runtime.GOMAXPROCS(0))
		rep.SessionsCore = perCoreThroughput * cfg.System.PeriodSeconds
	}
	if verbose {
		log.Printf("ran %.2f s at rate %.0f: %d windows", elapsed, rate, rep.Windows)
	}
	return rep, nil
}

func scenarioName(cfg serve.Config) string {
	if cfg.Faults == nil {
		return "none"
	}
	return cfg.Faults.Name
}

// percentile returns the q-quantile (0..1) of xs by nearest-rank.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}
