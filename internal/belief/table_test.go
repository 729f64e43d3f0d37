package belief

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
)

// testHash is the config hash the codec tests bind their frames to.
const testHash = 0x5eed

func TestTableCodecRoundTrip(t *testing.T) {
	tab := learnedTable(t)
	data, err := EncodeTable(tab, testHash)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseTable(data, testHash)
	if err != nil {
		t.Fatal(err)
	}
	if got.Grid != tab.Grid {
		t.Fatalf("grid changed: %+v -> %+v", tab.Grid, got.Grid)
	}
	for i := range tab.P {
		if got.P[i] != tab.P[i] {
			t.Fatalf("cell %d changed: %b -> %b", i, tab.P[i], got.P[i])
		}
	}
	// Re-encoding an accepted table must reproduce the input bytes.
	re, err := EncodeTable(got, testHash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, data) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestTableSaveLoad(t *testing.T) {
	tab := learnedTable(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "prior.chss")
	if err := SaveTable(tab, path, testHash); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTable(path, testHash)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.P {
		if got.P[i] != tab.P[i] {
			t.Fatalf("cell %d changed across disk round-trip", i)
		}
	}
	if _, err := LoadTable(path, testHash+1); !errors.Is(err, snapshot.ErrStale) {
		t.Errorf("table under another config hash: err = %v, want ErrStale", err)
	}
	if _, err := LoadTable(filepath.Join(dir, "missing.chss"), testHash); err == nil {
		t.Error("loading a missing file succeeded")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("save left %d entries in its directory, want 1", len(ents))
	}
}

// sealTable writes a table frame from raw payload fields and seals it
// with a valid CRC, so a malformed payload reaches ParseTable's payload
// checks rather than failing the frame's integrity check.
func sealTable(fill func(w *snapshot.Writer)) []byte {
	w := snapshot.NewWriter(snapshot.KindBeliefTable, testHash)
	fill(w)
	return w.Finish()
}

// tableFields writes the payload fields in codec order.
func tableFields(bins uint64, minHR, binW float64, p []float64) func(w *snapshot.Writer) {
	return func(w *snapshot.Writer) {
		w.U64(bins)
		w.F64(minHR)
		w.F64(binW)
		w.F64s(p)
	}
}

func TestParseTableRejectsHostileBytes(t *testing.T) {
	tab := learnedTable(t)
	g := tab.Grid
	valid, err := EncodeTable(tab, testHash)
	if err != nil {
		t.Fatal(err)
	}
	// The sealing helper itself produces an accepted frame, so each case
	// below fails on its own mutation.
	if _, err := ParseTable(sealTable(tableFields(uint64(g.Bins), g.MinHR, g.BinW, tab.P)), testHash); err != nil {
		t.Fatalf("resealed valid table rejected: %v", err)
	}
	withCell := func(i int, v float64) []float64 {
		p := append([]float64(nil), tab.P...)
		p[i] = v
		return p
	}
	// The parent codec's layout: magic "CHBP", version, bins, reserved,
	// minHR, binW, then the cells.
	chbp := append([]byte("CHBP"), make([]byte, 28+8*len(tab.P))...)
	binary.LittleEndian.PutUint32(chbp[4:], 1)
	binary.LittleEndian.PutUint32(chbp[8:], uint32(g.Bins))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 1
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, snapshot.ErrCorrupt},
		{"parent-chbp", chbp, snapshot.ErrCorrupt},
		{"truncated-frame", valid[:len(valid)-1], snapshot.ErrCorrupt},
		{"bit-flip", flipped, snapshot.ErrCorrupt},
		{"other-kind", func() []byte {
			w := snapshot.NewWriter(snapshot.KindWeights, testHash)
			tableFields(uint64(g.Bins), g.MinHR, g.BinW, tab.P)(w)
			return w.Finish()
		}(), snapshot.ErrStale},
		{"zero-bins", sealTable(tableFields(0, g.MinHR, g.BinW, tab.P)), snapshot.ErrCorrupt},
		{"huge-bins", sealTable(tableFields(maxBins+1, g.MinHR, g.BinW, tab.P)), snapshot.ErrCorrupt},
		{"nan-cell", sealTable(tableFields(uint64(g.Bins), g.MinHR, g.BinW, withCell(0, math.NaN()))), snapshot.ErrCorrupt},
		{"non-stochastic-row", sealTable(tableFields(uint64(g.Bins), g.MinHR, g.BinW, withCell(0, 0.999))), snapshot.ErrCorrupt},
		{"negative-minhr", sealTable(tableFields(uint64(g.Bins), -5, g.BinW, tab.P)), snapshot.ErrCorrupt},
		{"short-cells", sealTable(tableFields(uint64(g.Bins), g.MinHR, g.BinW, tab.P[:len(tab.P)-1])), snapshot.ErrCorrupt},
		{"truncated-payload", sealTable(func(w *snapshot.Writer) {
			w.U64(uint64(g.Bins))
			w.F64(g.MinHR)
			w.F64(g.BinW)
		}), snapshot.ErrCorrupt},
		{"trailing", sealTable(func(w *snapshot.Writer) {
			tableFields(uint64(g.Bins), g.MinHR, g.BinW, tab.P)(w)
			w.U8(0)
		}), snapshot.ErrCorrupt},
	}
	for _, c := range cases {
		if _, err := ParseTable(c.data, testHash); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestTableValidate(t *testing.T) {
	tab := learnedTable(t)
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	var nilTab *Table
	if err := nilTab.Validate(); err == nil {
		t.Error("nil table accepted")
	}
	short := &Table{Grid: tab.Grid, P: tab.P[:len(tab.P)-1]}
	if err := short.Validate(); err == nil {
		t.Error("wrong-length P accepted")
	}
	broken := &Table{Grid: tab.Grid, P: append([]float64(nil), tab.P...)}
	broken.P[0] += 0.5
	if err := broken.Validate(); err == nil {
		t.Error("non-row-stochastic table accepted")
	}
	neg := &Table{Grid: tab.Grid, P: append([]float64(nil), tab.P...)}
	neg.P[1] = -neg.P[1]
	if err := neg.Validate(); err == nil {
		t.Error("negative entry accepted")
	}
}

func TestSaveTableRefusesInvalid(t *testing.T) {
	tab := learnedTable(t)
	bad := &Table{Grid: tab.Grid, P: make([]float64, tab.Grid.Bins*tab.Grid.Bins)}
	path := filepath.Join(t.TempDir(), "bad.chss")
	if err := SaveTable(bad, path, testHash); err == nil {
		t.Fatal("all-zero table saved")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("refused save left a file behind")
	}
}
