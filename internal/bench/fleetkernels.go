package bench

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/hw"
)

// fleetKernels measures whole-fleet throughput per simulated window:
// per-user setup (physiology sampling, synthesis, classification,
// profiling) amortized against the replay-model tick loop across the full
// scenario mix. One iteration is the whole 1000-user-day run, so the
// kernel reports honest end-to-end cost, not a warmed-cache inner loop.
// The workload is 1000 users × 1 day on the default mix.
func fleetKernels() []KernelResult {
	cfg := fleet.DefaultConfig()
	cfg.Users = 1000
	cfg.Days = 1
	cfg.Seed = 1
	f, err := fleet.New(cfg)
	if err != nil {
		panic("bench: fleet kernel setup: " + err.Error())
	}
	windowsPerRun := int(float64(cfg.Users) * cfg.Days * 86400 / hw.NewSystem().PeriodSeconds)
	return []KernelResult{
		runKernelScaled("FleetDays1k", windowsPerRun, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
}
