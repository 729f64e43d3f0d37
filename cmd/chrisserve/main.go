// Command chrisserve runs the streaming multi-session inference engine
// (internal/serve): many simulated users submit PPG windows
// concurrently, the engine coalesces them into wide GEMM batches, and
// per-session robustness — backpressure, shedding, deadline discard,
// panic supervision — is exercised end to end.
//
// chrisserve -h lists the flags; internal/cli declares and checks them.
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
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/dalia"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chrisserve: ")
	o, err := cli.ParseServe(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	run, err := o.Build()
	if err != nil {
		log.Fatal(err)
	}
	cfg := serve.Config{
		Engine:     run.Engine,
		System:     run.Suite.Sys,
		Constraint: run.Constraint,
		Faults:     o.Scenario(),
		FaultSeed:  uint64(o.Seed),
		Belief:     run.Belief,
	}
	mode := runWall
	if o.Virtual {
		mode = runVirtual
	}
	rep, err := mode(cfg, run.Suite.TestWindows, o)
	if err != nil {
		log.Fatal(err)
	}
	o.Print(rep, rep.print)
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
// deterministic byte-for-byte under equal flags. With -checkpoint the
// engine snapshots after every quiesced cycle; with -resume it restores
// the snapshot first and continues from the checkpointed cycle,
// byte-identical to a run that never stopped. -crashafter N SIGKILLs the
// process right after cycle N's checkpoint lands — the hardest crash the
// host can deliver — for the CI recovery gate.
func runVirtual(cfg serve.Config, ws []dalia.Window, o *cli.Serve) (report, error) {
	vc := serve.NewVirtualClock()
	cfg.Clock = vc
	e, err := serve.Open(cfg)
	if err != nil {
		return report{}, err
	}
	start := 0
	if o.Resume {
		if err := e.RestoreFile(o.Checkpoint); err != nil {
			return report{}, fmt.Errorf("resume: %w", err)
		}
		// The restored clock sits at the checkpoint instant; the next
		// cycle index is its quotient by the window period.
		start = int(vc.Now()/cfg.System.PeriodSeconds + 0.5)
	}
	sessions, err := openSessions(e, o.Sessions)
	if err != nil {
		return report{}, err
	}
	for c := start; c < o.Cycles; c++ {
		for i, s := range sessions {
			w := &ws[(i*o.Cycles+c)%len(ws)]
			s.Submit(w, vc.Now())
		}
		e.Tick()
		vc.Advance(cfg.System.PeriodSeconds)
		if o.Checkpoint != "" {
			if err := e.Checkpoint(o.Checkpoint); err != nil {
				return report{}, err
			}
			if o.CrashAfter > 0 && c+1 == o.CrashAfter {
				crashSelf()
			}
		}
	}
	if err := e.Close(); err != nil {
		return report{}, err
	}
	return newReport("virtual", cfg, sessions), nil
}

// runWall free-runs the engine against real time with per-session
// submitter goroutines at the accelerated window period. -checkpoint
// turns on the engine's own auto-checkpoint cadence; -resume restores
// the previous snapshot first (a missing file is a first boot, not an
// error).
func runWall(cfg serve.Config, ws []dalia.Window, o *cli.Serve) (report, error) {
	cfg.FlushSeconds = cfg.System.PeriodSeconds / o.Rate / 4
	cfg.CheckpointPath = o.Checkpoint
	// Read before Open so the pump's first auto-checkpoint of the empty
	// engine cannot clobber the snapshot we are about to restore.
	var resumeData []byte
	if o.Resume {
		var err error
		resumeData, err = os.ReadFile(o.Checkpoint)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return report{}, fmt.Errorf("resume: %w", err)
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
	sessions, err := openSessions(e, o.Sessions)
	if err != nil {
		return report{}, err
	}
	period := time.Duration(cfg.System.PeriodSeconds / o.Rate * float64(time.Second))
	stop := make(chan struct{})
	time.AfterFunc(time.Duration(o.Seconds*float64(time.Second)), func() { close(stop) })
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
				s.SubmitNow(&ws[(i+k*o.Sessions)%len(ws)])
				k++
			}
		}(i, s)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err := e.Close(); err != nil {
		return report{}, err
	}
	rep := newReport("wall", cfg, sessions)
	if elapsed > 0 {
		rep.WindowsPerSec = float64(rep.Windows) / elapsed
		// sessions/core at real-time cadence: how many 2 s streams one
		// core sustains, extrapolated from the accelerated run.
		perCoreThroughput := rep.WindowsPerSec / float64(runtime.GOMAXPROCS(0))
		rep.SessionsCore = perCoreThroughput * cfg.System.PeriodSeconds
	}
	if o.Verbose {
		log.Printf("ran %.2f s at rate %.0f: %d windows", elapsed, o.Rate, rep.Windows)
	}
	return rep, nil
}

// openSessions returns sessions u0000… up to n, reusing those a restore
// brought back.
func openSessions(e *serve.Engine, n int) ([]*serve.Session, error) {
	sessions := make([]*serve.Session, n)
	for i := range sessions {
		id := fmt.Sprintf("u%04d", i)
		if sessions[i] = e.Session(id); sessions[i] == nil {
			s, err := e.NewSession(id)
			if err != nil {
				return nil, err
			}
			sessions[i] = s
		}
	}
	return sessions, nil
}

// crashSelf simulates the hardest crash the host can deliver: a kill
// that cannot be caught (SIGKILL on Unix), so no deferred cleanup or
// flush runs. The CI crash-recovery gate uses it to prove a -resume run
// continues byte-identically from the last durable checkpoint.
func crashSelf() {
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		p.Kill()
	}
	// Unreachable once the kill lands; the code mirrors a SIGKILL death.
	os.Exit(137)
}

// newReport drains every session into the run summary. Per-window
// results are kept only in virtual mode, where they are the replay-gate
// payload; wall-mode results are timing-dependent, not replayable.
func newReport(mode string, cfg serve.Config, sessions []*serve.Session) report {
	rep := report{Mode: mode, Sessions: len(sessions), Seed: cfg.FaultSeed, Scenario: "none"}
	if cfg.Faults != nil {
		rep.Scenario = cfg.Faults.Name
	}
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
		if mode != "virtual" {
			res = nil
		}
		rep.PerSession = append(rep.PerSession, sessionReport{ID: s.ID(), Stats: st, Results: res})
	}
	// Nearest-rank percentiles.
	sort.Float64s(lat)
	if n := len(lat); n > 0 {
		rep.P50LatencyMS = lat[int(0.50*float64(n-1))] * 1e3
		rep.P99LatencyMS = lat[int(0.99*float64(n-1))] * 1e3
	}
	return rep
}
