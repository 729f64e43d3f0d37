package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/serve"
)

// serveSessions × serveCycles sizes the streaming-engine kernels: enough
// concurrent sessions that the coalescer forms real cross-session
// batches, small enough that one lockstep replay stays in benchmark
// territory.
const (
	serveSessions = 32
	serveCycles   = 64
)

// serveKernels measures the streaming engine's lockstep cycle cost per
// window — admission, coalescing, batched inference, finalize — clean
// and under the worst-case chaos scenario. The delta is the per-window
// price of the fault machinery (per-session channel draws, offload
// retries, hysteresis) inside the multi-session engine, the serving
// counterpart of the SimRun1h/clean-vs-faults pair.
//
// Each iteration opens an engine and its 32 sessions and never drains
// them, so its allocations are the run's: engine and session set-up,
// the first cycles growing each session's two mailbox arrays, and the
// undrained result slices doubling up to 64 entries. About 1.5 k per
// 2048-window run, which the ledger reports as that fraction per window;
// a steady cycle allocates only what Drain hands out
// (serve.TestSteadyTickAllocs).
func serveKernels() []KernelResult {
	sys, engine, ws := simKernelFixture()
	run := func(sc *faults.Scenario) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vc := serve.NewVirtualClock()
				e, err := serve.Open(serve.Config{
					Engine:     engine,
					System:     sys,
					Constraint: core.MAEConstraint(6),
					Clock:      vc,
					Faults:     sc,
					FaultSeed:  7,
				})
				if err != nil {
					b.Fatal(err)
				}
				sess := make([]*serve.Session, serveSessions)
				for s := range sess {
					if sess[s], err = e.NewSession(fmt.Sprintf("u%02d", s)); err != nil {
						b.Fatal(err)
					}
				}
				for c := 0; c < serveCycles; c++ {
					for s, u := range sess {
						u.Submit(&ws[(s*serveCycles+c)%len(ws)], vc.Now())
					}
					e.Tick()
					vc.Advance(sys.PeriodSeconds)
				}
				if err := e.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	worst := faults.WorstCase()
	n := serveSessions * serveCycles
	return []KernelResult{
		runKernelScaled("ServeTick32x64/clean", n, run(nil)),
		runKernelScaled("ServeTick32x64/worstcase", n, run(&worst)),
	}
}
