// Package at implements the Adaptive Threshold heart-rate estimator (Shin
// et al., "Adaptive threshold method for the peak detection of
// photoplethysmographic waveform", 2009), the cheap classical model of the
// CHRIS Models Zoo.
//
// Following the paper's description (§III-C): the rolling mean of the
// signal over 24 samples forms an adaptive threshold; maximal runs where
// the raw signal exceeds the threshold are the regions of interest; the
// largest sample of each region is a peak; the median inter-peak interval
// maps to the heart rate. The method needs ≈3 k operations per 8-second
// window.
package at

import (
	"repro/internal/dalia"
	"repro/internal/dsp"
	"repro/internal/models"
)

// ModelName is the zoo identifier for this estimator.
const ModelName = "AT"

// Estimator is the Adaptive Threshold HR estimator. The zero value is not
// usable; call New.
type Estimator struct {
	// MeanWindow is the rolling-mean length in samples (paper: 24).
	MeanWindow int
	// MinHR/MaxHR bound plausible inter-beat intervals (BPM).
	MinHR, MaxHR float64
	// FallbackHR is returned when fewer than two plausible peaks exist.
	FallbackHR float64
	// Smooth is the length of a cheap moving-average pre-filter (≤1
	// disables it). It costs ≈Smooth ops per sample and suppresses the
	// sensor-noise double crossings that split regions of interest.
	Smooth int
}

// New returns the estimator with the paper's parameters.
func New() *Estimator {
	return &Estimator{MeanWindow: 24, MinHR: 35, MaxHR: 210, FallbackHR: 75, Smooth: 4}
}

// Name implements models.HREstimator.
func (e *Estimator) Name() string { return ModelName }

// Ops implements models.HREstimator: the paper quotes ≈3 k operations per
// window for AT.
func (e *Estimator) Ops() int64 { return 3_000 }

// Params implements models.HREstimator; AT has no trainable parameters.
func (e *Estimator) Params() int64 { return 0 }

// EstimateHR implements models.HREstimator.
func (e *Estimator) EstimateHR(w *dalia.Window) float64 {
	return models.ClampHR(e.estimate(w.PPG, w.Rate))
}

// CloneEstimator implements models.WorkerCloner. AT is pure configuration
// (no per-window state), so the clone is a plain copy.
func (e *Estimator) CloneEstimator() models.HREstimator {
	c := *e
	return &c
}

// stackSamples sizes estimate's on-stack scratch: one 8-second window at
// the dataset's 32 Hz. Longer windows fall back to heap scratch.
const stackSamples = 256

// estimate is allocation-free for windows of up to stackSamples samples:
// the rolling means go into stack scratch, and regions of interest,
// their peaks and the inter-beat intervals are found in one streaming
// pass. Scratch lives on the caller's stack, so one Estimator may serve
// any number of goroutines.
func (e *Estimator) estimate(ppg []float64, fs float64) float64 {
	n := len(ppg)
	if n < e.MeanWindow*2 || fs <= 0 {
		return e.FallbackHR
	}
	var smoothBuf, thrBuf [stackSamples]float64
	smooth, thr := smoothBuf[:], thrBuf[:]
	if n > stackSamples {
		smooth, thr = make([]float64, n), make([]float64, n)
	}
	if e.Smooth > 1 {
		ppg = dsp.RollingMeanInto(smooth, ppg, e.Smooth)
	}
	thr = dsp.RollingMeanInto(thr, ppg, e.MeanWindow)

	// Regions of interest are the maximal runs where the signal exceeds
	// its threshold; each region's first maximum is a peak, and the gap
	// to the previous peak is an inter-beat interval, kept only when it
	// is physiologically plausible.
	minGap := fs * 60 / e.MaxHR
	maxGap := fs * 60 / e.MinHR
	var ibiBuf [64]float64
	ibis := ibiBuf[:0]
	prevPeak, peak, in := -1, 0, false
	closeRegion := func() {
		if prevPeak >= 0 {
			if gap := float64(peak - prevPeak); gap >= minGap && gap <= maxGap {
				ibis = append(ibis, gap)
			}
		}
		prevPeak = peak
	}
	for i, v := range ppg {
		above := v > thr[i]
		switch {
		case above && !in:
			in, peak = true, i
		case above && v > ppg[peak]:
			peak = i
		case !above && in:
			in = false
			closeRegion()
		}
	}
	if in {
		closeRegion()
	}
	if len(ibis) == 0 {
		return e.FallbackHR
	}
	return 60 * fs / dsp.MedianInPlace(ibis)
}

var (
	_ models.HREstimator  = (*Estimator)(nil)
	_ models.WorkerCloner = (*Estimator)(nil)
)
