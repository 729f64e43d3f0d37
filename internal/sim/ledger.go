package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/hw/power"
	"repro/internal/snapshot"
)

// Ledger is one stream's per-window tally, written only by
// Step.Complete. RunState keeps one per simulation and
// serve.SessionStats embeds one per session, so the simulator and the
// streaming engine count a window the same way by construction.
type Ledger struct {
	// Predictions counts windows with an estimate; with a belief filter
	// each was fused into the posterior.
	Predictions uint64
	// Offloaded, SimpleRuns and FallbackWindows split the predictions
	// the complex model did not run locally: a timely phone estimate, a
	// healthy run of the simple model, and a degradation to it after the
	// offload failed or the link was down.
	Offloaded       uint64
	SimpleRuns      uint64
	FallbackWindows uint64
	// DeadlineMisses counts fallbacks after an attempted offload.
	DeadlineMisses uint64
	// The offload protocol's counters (see OffloadOutcome).
	Retries           uint64
	Timeouts          uint64
	SupervisionDrops  uint64
	RetransmitPackets uint64
	// GatedWindows counts offloads demoted by the uncertainty gate.
	GatedWindows    uint64
	Reselections    uint64
	LinkDownWindows uint64
	// FaultWindows counts predictions touched by a fault.
	FaultWindows uint64
	// AbsErrSum and FaultAbsErrSum are the MAE numerators over
	// Predictions and FaultWindows.
	AbsErrSum, FaultAbsErrSum float64
	// RadioEnergy is the watch's offload streaming energy, of which
	// RetransmitEnergy went beyond the lossless cost; PhoneEnergy is the
	// phone-side inference energy.
	RadioEnergy, RetransmitEnergy, PhoneEnergy power.Energy
	// BeliefCovered counts predictions whose credible interval covered
	// the true HR; BeliefWidthSum sums the interval widths.
	BeliefCovered  uint64
	BeliefWidthSum float64
}

// MAE is the mean absolute error over the predicted windows.
func (l Ledger) MAE() float64 { return mean(l.AbsErrSum, l.Predictions) }

// FaultMAE is the mean absolute error over the fault-touched windows.
func (l Ledger) FaultMAE() float64 { return mean(l.FaultAbsErrSum, l.FaultWindows) }

// BeliefWidthMean is the mean credible-interval width (BPM) over the
// predicted windows; 0 without a belief filter.
func (l Ledger) BeliefWidthMean() float64 { return mean(l.BeliefWidthSum, l.Predictions) }

// BeliefCoverage is the fraction of predicted windows whose credible
// interval covered the true HR; 0 without a belief filter.
func (l Ledger) BeliefCoverage() float64 { return mean(float64(l.BeliefCovered), l.Predictions) }

func mean(sum float64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// fields lists the ledger's counters and sums in codec order.
func (l *Ledger) fields() (counts [14]*uint64, sums [6]*float64) {
	counts = [...]*uint64{&l.Predictions, &l.Offloaded, &l.SimpleRuns, &l.FallbackWindows,
		&l.DeadlineMisses, &l.Retries, &l.Timeouts, &l.SupervisionDrops, &l.RetransmitPackets,
		&l.GatedWindows, &l.Reselections, &l.LinkDownWindows, &l.FaultWindows, &l.BeliefCovered}
	sums = [...]*float64{&l.AbsErrSum, &l.FaultAbsErrSum, (*float64)(&l.RadioEnergy),
		(*float64)(&l.RetransmitEnergy), (*float64)(&l.PhoneEnergy), &l.BeliefWidthSum}
	return counts, sums
}

// Encode appends l to a CHSS payload; the sim-state and serve session
// frames both carry it.
func (l *Ledger) Encode(w *snapshot.Writer) {
	counts, sums := l.fields()
	for _, p := range counts {
		w.U64(*p)
	}
	for _, p := range sums {
		w.F64(*p)
	}
}

// DecodeLedger reads a Ledger written by Encode. Check the reader's
// error, then Validate, before using it.
func DecodeLedger(r *snapshot.Reader) Ledger {
	var l Ledger
	counts, sums := l.fields()
	for _, p := range counts {
		*p = r.U64()
	}
	for _, p := range sums {
		*p = r.F64()
	}
	return l
}

// Validate rejects tallies no stream can produce: a CRC-intact but forged
// frame must not resume with a NaN, negative or infinite sum, or with
// more covered or fault windows than predictions.
func (l *Ledger) Validate() error {
	_, sums := l.fields()
	for _, p := range sums {
		if err := nonNegative(*p); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
	}
	if l.BeliefCovered > l.Predictions || l.FaultWindows > l.Predictions {
		return errors.New("ledger: more covered or fault windows than predictions")
	}
	return nil
}

// nonNegative rejects NaN, ±Inf and negative values of a decoded sum.
func nonNegative(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("value %v is not a finite non-negative number", v)
	}
	return nil
}
