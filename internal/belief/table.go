package belief

import (
	"fmt"
	"math"
	"os"

	"repro/internal/snapshot"
)

// Table is a row-stochastic HR-transition prior over a Grid: P[i*Bins+j]
// is the probability of moving from bin i to bin j between consecutive
// windows. Rows sum to 1 within rowSumTol.
type Table struct {
	Grid Grid
	P    []float64 // row-major Bins×Bins
}

// rowSumTol bounds how far a row sum may drift from 1. Normalizing a
// 90-entry row accumulates at most a few hundred ulps (~1e-13); anything
// past 1e-9 is a malformed table, not rounding.
const rowSumTol = 1e-9

// Validate checks the table's invariants: a valid grid, exact geometry,
// finite non-negative entries, and row sums within rowSumTol of 1.
func (t *Table) Validate() error {
	if t == nil {
		return fmt.Errorf("belief: nil table")
	}
	if err := t.Grid.Validate(); err != nil {
		return err
	}
	k := t.Grid.Bins
	if len(t.P) != k*k {
		return fmt.Errorf("belief: table has %d cells, want %d×%d", len(t.P), k, k)
	}
	for i := 0; i < k; i++ {
		sum := 0.0
		row := t.P[i*k : (i+1)*k]
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("belief: P[%d][%d] = %v is not a probability", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > rowSumTol {
			return fmt.Errorf("belief: row %d sums to %v, want 1 ± %g", i, sum, rowSumTol)
		}
	}
	return nil
}

// The codec: a table is the payload of a snapshot.KindBeliefTable frame,
// so framing, integrity (CRC) and typed rejection come from
// internal/snapshot, and the frame is bound to the caller's config hash.
// Payload, in order: bins u64, minHR f64, binW f64, then the bins×bins
// probabilities row-major as an f64 slice. The encoding is a pure
// function of the table's float bits, so an accepted frame re-encodes to
// the identical bytes (the FuzzTransitionPrior round-trip invariant).

// EncodeTable serializes the table into a frame bound to configHash.
func EncodeTable(t *Table, configHash uint64) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	w := snapshot.NewWriterSize(snapshot.KindBeliefTable, configHash, 3*8+4+8*len(t.P))
	w.U64(uint64(t.Grid.Bins))
	w.F64(t.Grid.MinHR)
	w.F64(t.Grid.BinW)
	w.F64s(t.P)
	return w.Finish(), nil
}

// ParseTable decodes and validates an encoded transition prior. Framing
// damage and malformed payloads (bins outside [2, maxBins], wrong
// geometry, trailing bytes, non-finite or negative entries, rows that do
// not sum to 1) fail with snapshot.ErrCorrupt; an intact frame of another
// kind or config hash fails with snapshot.ErrStale. Accepted input
// re-encodes byte-identically.
func ParseTable(data []byte, configHash uint64) (*Table, error) {
	r, err := snapshot.Open(data, snapshot.KindBeliefTable, configHash)
	if err != nil {
		return nil, fmt.Errorf("belief: table: %w", err)
	}
	bins := r.U64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("belief: table: %w", err)
	}
	if bins < 2 || bins > maxBins {
		return nil, fmt.Errorf("belief: table: %w: bins %d outside [2, %d]", snapshot.ErrCorrupt, bins, maxBins)
	}
	t := &Table{Grid: Grid{Bins: int(bins), MinHR: r.F64(), BinW: r.F64()}, P: r.F64s()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("belief: table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	return t, nil
}

// SaveTable publishes the encoded table at path through
// snapshot.WriteFile, so a crash never leaves a torn table behind.
func SaveTable(t *Table, path string, configHash uint64) error {
	data, err := EncodeTable(t, configHash)
	if err != nil {
		return err
	}
	return snapshot.WriteFile(path, data)
}

// LoadTable reads and validates an encoded table from path.
func LoadTable(path string, configHash uint64) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseTable(data, configHash)
}
