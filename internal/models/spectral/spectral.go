// Package spectral implements a frequency-domain HR estimator in the
// spirit of the classical SPC-era pipelines the paper discusses
// (TROIKA-like: spectrum extraction, accelerometer-guided motion-artifact
// masking, peak tracking). It is not part of the paper's three-model zoo,
// but CHRIS is explicitly orthogonal to the predictor set (§III-C), and a
// mid-cost classical model is the natural fourth member for zoo-extension
// experiments (see examples/customzoo for the plug-in mechanics).
//
// The estimator runs in float64 and allocates nothing in steady state.
package spectral

import (
	"repro/internal/dalia"
	"repro/internal/dsp"
	"repro/internal/models"
)

// ModelName is the zoo identifier.
const ModelName = "SpectralTrack"

// Estimator estimates HR as the strongest cardiac-band PPG component that
// does not coincide with a dominant accelerometer component, with a
// tracking prior pulling ambiguous windows toward the previous estimate.
//
// The estimator carries both tracking state and reusable DSP scratch
// (an FFT plan, window and spectrum buffers), so steady-state calls do not
// allocate; it is single-goroutine by construction, and its sequential
// tracking prior is also why eval runs it serially rather than splitting
// windows across workers.
type Estimator struct {
	// Band limits in Hz (cardiac band 0.5–4 Hz ≈ 30–240 BPM).
	LoHz, HiHz float64
	// MaskHz is the half-width around each accelerometer peak within
	// which PPG spectral peaks are rejected as motion artifacts.
	MaskHz float64
	// MotionRMS is the minimum gravity-free accelerometer RMS (g) for the
	// artifact mask to engage; below it the accel spectrum is noise and
	// masking would erase legitimate cardiac bins.
	MotionRMS float64
	// TrackWeight in [0,1) biases the pick toward the previous HR; 0
	// disables tracking (stateless operation).
	TrackWeight float64
	// state
	lastHR float64

	// scratch, lazily sized to the window length
	winLen   int
	plan     *dsp.Plan
	win      []float64 // Hann window of winLen
	sig      []float64 // detrended PPG copy
	mag      []float64 // detrended accel magnitude
	buf      []float64 // zero-padded windowed frame
	power    []float64 // PPG power spectrum
	accPower []float64 // accel power spectrum
	masked   []bool
}

// New returns the estimator with its default parameters.
func New() *Estimator {
	return &Estimator{LoHz: 0.5, HiHz: 4.0, MaskHz: 0.12, MotionRMS: 0.08, TrackWeight: 0.35}
}

// Name implements models.HREstimator.
func (e *Estimator) Name() string { return ModelName }

// Ops implements models.HREstimator: two 256-point FFTs plus peak logic.
func (e *Estimator) Ops() int64 { return 60_000 }

// Params implements models.HREstimator.
func (e *Estimator) Params() int64 { return 0 }

// Reset clears the tracking state.
func (e *Estimator) Reset() { e.lastHR = 0 }

// ensureScratch (re)builds the per-window-length buffers.
func (e *Estimator) ensureScratch(n int) {
	if e.winLen == n {
		return
	}
	padded := dsp.NextPow2(n)
	bins := padded/2 + 1
	e.winLen = n
	e.masked = make([]bool, bins)
	e.plan = dsp.NewPlan(padded)
	e.win = dsp.Hann(n)
	e.sig = make([]float64, n)
	e.mag = make([]float64, n)
	e.buf = make([]float64, padded)
	e.power = make([]float64, bins)
	e.accPower = make([]float64, bins)
}

// periodogramInto computes the Hann-windowed one-sided power spectrum of x
// into dst using the cached plan, mirroring dsp.Periodogram without its
// allocations. The zero-padded tail of e.buf is only ever written with
// zeros, so it needs no re-clearing between calls.
func (e *Estimator) periodogramInto(dst, x []float64, fs float64) (power []float64, binHz float64) {
	for i, v := range x {
		e.buf[i] = v * e.win[i]
	}
	return e.plan.PowerSpectrumInto(dst, e.buf), fs / float64(len(e.buf))
}

// EstimateHR implements models.HREstimator.
func (e *Estimator) EstimateHR(w *dalia.Window) float64 {
	e.ensureScratch(len(w.PPG))
	ppg := e.sig
	copy(ppg, w.PPG)
	dsp.Detrend(ppg)
	power, binHz := e.periodogramInto(e.power, ppg, w.Rate)

	// Accelerometer reference spectrum for artifact masking — engaged
	// only when the wrist is actually moving.
	mag := dsp.MagnitudeInto(e.mag, w.AccelX, w.AccelY, w.AccelZ)
	dsp.Detrend(mag)
	maskedBins := e.masked[:len(power)]
	for i := range maskedBins {
		maskedBins[i] = false
	}
	if dsp.RMS(mag) >= e.MotionRMS {
		accPower, accBin := e.periodogramInto(e.accPower, mag, w.Rate)
		e.motionBins(maskedBins, accPower, accBin, binHz)
	}

	lo := int(e.LoHz/binHz) + 1
	hi := int(e.HiHz / binHz)
	if hi >= len(power) {
		hi = len(power) - 1
	}
	bestScore := -1.0
	bestHz := 0.0
	for k := lo; k <= hi; k++ {
		if maskedBins[k] {
			continue
		}
		score := power[k]
		if e.TrackWeight > 0 && e.lastHR > 0 {
			f := float64(k) * binHz
			dev := (f*60 - e.lastHR) / 20 // BPM deviation, 20-BPM scale
			if dev < 0 {
				dev = -dev
			}
			score *= 1 / (1 + e.TrackWeight*dev)
		}
		if score > bestScore {
			bestScore = score
			bestHz = float64(k) * binHz
		}
	}
	if bestHz == 0 {
		// Every candidate was masked: fall back to the unmasked dominant
		// component (better than returning nothing).
		bestHz = dsp.DominantFrequency(ppg, w.Rate, e.LoHz, e.HiHz)
	}
	hr := models.ClampHR(bestHz * 60)
	if hr > 0 {
		e.lastHR = hr
	}
	return hr
}

// motionBins flags cardiac-band bins whose frequency lies within MaskHz of
// a strong accelerometer component (≥ 25 % of the accel spectrum's peak).
func (e *Estimator) motionBins(masked []bool, accPower []float64, accBin, binHz float64) {
	var peak float64
	for k := 1; k < len(accPower); k++ {
		if accPower[k] > peak {
			peak = accPower[k]
		}
	}
	if peak == 0 {
		return
	}
	for k := 1; k < len(accPower); k++ {
		if accPower[k] < 0.25*peak {
			continue
		}
		f := float64(k) * accBin
		if f < e.LoHz-e.MaskHz || f > e.HiHz+e.MaskHz {
			continue
		}
		loBin := int((f - e.MaskHz) / binHz)
		hiBin := int((f+e.MaskHz)/binHz) + 1
		for b := loBin; b <= hiBin && b < len(masked); b++ {
			if b >= 0 {
				masked[b] = true
			}
		}
	}
}

var _ models.HREstimator = (*Estimator)(nil)
