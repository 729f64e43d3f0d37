package belief

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/dalia"
	"repro/internal/snapshot"
)

// FuzzTransitionPrior throws arbitrary bytes at the table codec, both as
// a whole frame and as a payload sealed into a valid frame (a mutated
// frame almost always fails its CRC, so the sealed form is what reaches
// the payload checks). The contract under fuzz: ParseTable never panics;
// whatever it accepts is a fully valid row-stochastic banded-or-dense
// prior (Validate passes, a filter can be built on it) and re-encodes to
// the exact frame bytes, so a parse/encode cycle can never launder a
// hostile table into the cache. The committed corpus holds parent-format
// (CHBP) tables, which now only exercise rejection.
func FuzzTransitionPrior(f *testing.F) {
	// Seeds: a learned prior over a synthetic HR walk (cheap to build —
	// fuzz workers re-run this setup), a minimal hand-built 2-bin table,
	// their payloads alone, and near-miss corruptions.
	walk := make([]dalia.Window, 200)
	for i := range walk {
		walk[i] = dalia.Window{Subject: 0, TrueHR: 80 + 40*math.Sin(float64(i)/9)}
	}
	tab, err := LearnWindows(DefaultGrid(), walk, DefaultLearnConfig())
	if err != nil {
		f.Fatal(err)
	}
	learned, err := EncodeTable(tab, 0)
	if err != nil {
		f.Fatal(err)
	}
	tiny, err := EncodeTable(&Table{
		Grid: Grid{Bins: 2, MinHR: 30, BinW: 2},
		P:    []float64{0.75, 0.25, 0.5, 0.5},
	}, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(learned)
	f.Add(tiny)
	f.Add(framePayload(tiny))
	f.Add([]byte(nil))
	f.Add([]byte("CHSS"))
	f.Add(tiny[:len(tiny)-1])
	badBins := append([]byte(nil), framePayload(tiny)...)
	badBins[0] = 1
	f.Add(badBins)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, sealPayload(data)} {
			checkAcceptedPrior(t, frame)
		}
	})
}

// framePayload strips a CHSS frame's 24-byte header and 4-byte CRC.
func framePayload(frame []byte) []byte { return frame[24 : len(frame)-4] }

// sealPayload wraps raw bytes as the payload of a valid table frame.
func sealPayload(payload []byte) []byte {
	w := snapshot.NewWriter(snapshot.KindBeliefTable, 0)
	for _, b := range payload {
		w.U8(b)
	}
	return w.Finish()
}

// checkAcceptedPrior holds the fuzz contract for one frame.
func checkAcceptedPrior(t *testing.T, data []byte) {
	tab, err := ParseTable(data, 0)
	if err != nil {
		if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrStale) {
			t.Fatalf("untyped rejection: %v", err)
		}
		return
	}
	if err := tab.Validate(); err != nil {
		t.Fatalf("accepted table fails Validate: %v", err)
	}
	if tab.Grid.Bins < 2 || tab.Grid.Bins > maxBins {
		t.Fatalf("accepted geometry %d bins", tab.Grid.Bins)
	}
	re, err := EncodeTable(tab, 0)
	if err != nil {
		t.Fatalf("accepted table fails re-encode: %v", err)
	}
	if !bytes.Equal(re, data) {
		t.Fatalf("round-trip not byte-identical: %d in, %d out", len(data), len(re))
	}
	// An accepted prior must be directly usable: build a filter and run
	// one full update without the posterior leaving the simplex.
	fl, err := NewFilter(tab)
	if err != nil {
		t.Fatalf("accepted table rejected by NewFilter: %v", err)
	}
	fl.ObserveGaussian(100, 5)
	sum := 0.0
	for _, p := range fl.post {
		if math.IsNaN(p) || p < 0 {
			t.Fatalf("posterior left the simplex: %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posterior sums to %v on fuzzed prior", sum)
	}
}
