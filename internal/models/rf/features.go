// Package rf implements the Random-Forest activity classifier CHRIS uses
// as its difficulty detector: CART trees with Gini impurity, bootstrap
// bagging, and the paper's 4-feature accelerometer front end (mean, energy,
// standard deviation and number of peaks), selected from a larger library
// of common statistical features by grid search (§III-C).
//
// The forest is sized to fit the LSM6DSM inertial sensor's embedded
// machine-learning core (8 trees, depth ≤ 5), so the watch MCU never spends
// cycles on it; internal/hw/sensors enforces those limits.
package rf

import (
	"fmt"

	"repro/internal/dalia"
	"repro/internal/dsp"
)

// FeatureID names one statistical feature computed over the gravity-free
// accelerometer magnitude of a window.
type FeatureID int

// The feature library. The paper's grid search selected Mean, Energy, Std
// and NumPeaks; the others stay selectable through Config.Features.
const (
	FeatMean FeatureID = iota
	FeatEnergy
	FeatStd
	FeatNumPeaks
	FeatPeakToPeak
	FeatRMS
	FeatZeroCross
	FeatSkewness
	FeatKurtosis
	FeatMAD
	numFeatures
)

// NumFeatures is the size of the feature library.
const NumFeatures = int(numFeatures)

// String returns the feature name.
func (f FeatureID) String() string {
	names := [...]string{
		"mean", "energy", "std", "num_peaks", "peak_to_peak",
		"rms", "zero_crossings", "skewness", "kurtosis", "mad",
	}
	if f < 0 || int(f) >= len(names) {
		return fmt.Sprintf("feature(%d)", int(f))
	}
	return names[f]
}

// PaperFeatures is the subset the paper reports: mean, energy, standard
// deviation and number of peaks (discrete-derivative sign changes).
func PaperFeatures() []FeatureID {
	return []FeatureID{FeatMean, FeatEnergy, FeatStd, FeatNumPeaks}
}

// AllFeatures lists the whole library.
func AllFeatures() []FeatureID {
	out := make([]FeatureID, NumFeatures)
	for i := range out {
		out[i] = FeatureID(i)
	}
	return out
}

// Extract computes one feature over a prepared magnitude signal.
func Extract(f FeatureID, mag []float64) float64 {
	switch f {
	case FeatMean:
		return dsp.Mean(mag)
	case FeatEnergy:
		return dsp.Energy(mag)
	case FeatStd:
		return dsp.Std(mag)
	case FeatNumPeaks:
		return float64(dsp.DerivativeSignChanges(mag))
	case FeatPeakToPeak:
		return dsp.PeakToPeak(mag)
	case FeatRMS:
		return dsp.RMS(mag)
	case FeatZeroCross:
		return float64(dsp.ZeroCrossings(mag))
	case FeatSkewness:
		return dsp.Skewness(mag)
	case FeatKurtosis:
		return dsp.Kurtosis(mag)
	case FeatMAD:
		return dsp.MAD(mag)
	default:
		return 0
	}
}

// WindowMagnitude prepares the accelerometer magnitude of a window for
// feature extraction: Euclidean norm of the three axes with the gravity
// trend removed.
func WindowMagnitude(w *dalia.Window) []float64 {
	mag := w.AccelMagnitude()
	return dsp.Detrend(mag)
}

// FeatureVector extracts the configured features from a window.
func FeatureVector(w *dalia.Window, feats []FeatureID) []float64 {
	return extractInto(make([]float64, len(feats)), WindowMagnitude(w), feats)
}

// extractInto fills out[i] with feature feats[i] over mag.
func extractInto(out, mag []float64, feats []FeatureID) []float64 {
	for i, f := range feats {
		out[i] = Extract(f, mag)
	}
	return out
}
