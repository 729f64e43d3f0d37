package sim

import (
	"fmt"

	"repro/internal/belief"
)

// beliefState is the per-run wiring of the belief filter into the tick
// loops. All per-window work is allocation-free: the motion RMS of every
// unique window is precomputed once (the stream replays cyclically), and
// the filter's streaming update never allocates.
type beliefState struct {
	p   *belief.Policy
	f   *belief.Filter
	rms []float64 // motion RMS per unique window, indexed like cfg.Windows

	gated    int     // offloads demoted by the uncertainty gate
	observed int     // windows fused into the posterior
	widthSum float64 // Σ credible-interval width after each observation
	covered  int     // observations whose interval covered TrueHR
}

func newBeliefState(cfg *Config) (*beliefState, error) {
	if err := cfg.Belief.Validate(); err != nil {
		return nil, fmt.Errorf("sim: belief policy: %w", err)
	}
	f, err := belief.NewFilter(cfg.Belief.Table)
	if err != nil {
		return nil, fmt.Errorf("sim: belief filter: %w", err)
	}
	bs := &beliefState{
		p:   cfg.Belief,
		f:   f,
		rms: make([]float64, len(cfg.Windows)),
	}
	var scratch []float64
	for i := range cfg.Windows {
		bs.rms[i], scratch = belief.MotionRMS(&cfg.Windows[i], scratch)
	}
	return bs, nil
}

// observe fuses the window's point estimate (produced by modelName) into
// the posterior and returns the HR to report: the posterior mean when the
// policy smooths, the raw estimate otherwise (observer mode).
func (bs *beliefState) observe(modelName string, wi int, hr, trueHR float64) float64 {
	bs.f.ObserveGaussian(hr, bs.p.Sigma(modelName, bs.rms[wi]))
	bs.observed++
	bs.widthSum += bs.f.Width(bs.p.Mass)
	if bs.f.Covers(bs.p.Mass, trueHR) {
		bs.covered++
	}
	if bs.p.Smooth {
		return bs.f.Mean()
	}
	return hr
}

// coast advances the belief through a window that produced no estimate
// (MCU busy, window skipped): time still passes for the hidden chain.
func (bs *beliefState) coast() { bs.f.Coast() }

// fold writes the belief counters into the result.
func (bs *beliefState) fold(res *Result) {
	res.BeliefBins = bs.f.Grid().Bins
	res.GatedOffloads = bs.gated
	if bs.observed > 0 {
		res.BeliefWidthMean = bs.widthSum / float64(bs.observed)
		res.BeliefCoverage = float64(bs.covered) / float64(bs.observed)
	}
}
