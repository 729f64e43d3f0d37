package dsp_test

import (
	"fmt"
	"math"

	"repro/internal/dsp"
)

// ExamplePlan shows the allocation-free spectral path the AT estimator
// and the difficulty detector's features run on: build a Plan once, then
// reuse it (and the caller-owned output buffer) for every window.
func ExamplePlan() {
	const n = 256
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 8 * float64(i) / n) // 8 cycles per window
	}

	plan := dsp.NewPlan(n)
	pow := plan.PowerSpectrumInto(make([]float64, n/2+1), sig)

	peak := 0
	for k := range pow {
		if pow[k] > pow[peak] {
			peak = k
		}
	}
	fmt.Printf("%d bins, peak at bin %d\n", len(pow), peak)
	// Output: 129 bins, peak at bin 8
}
