package tcn

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
)

// FuzzLoad feeds arbitrary bytes to the weight-file loader, both as a
// whole file and as a payload sealed into a valid frame (a mutated frame
// almost always fails its CRC, so the sealed form is what reaches the
// payload checks). Load must never panic, must reject with a typed
// snapshot error, and must never accept a file whose topology it cannot
// name; whatever it accepts re-encodes byte-identically through Save, so
// truncation, appended garbage or non-finite weights can never be
// half-loaded. The committed corpus holds a parent-format (TCNW) header,
// which now only exercises rejection.
func FuzzLoad(f *testing.F) {
	net := NewTimePPGSmall()
	net.InitWeights(1)
	path := filepath.Join(f.TempDir(), "seed.tcnw")
	if err := Save(net, path); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	payload := valid[24 : len(valid)-4] // strip the frame header and CRC
	f.Add(valid)
	f.Add(payload)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0xAA))
	f.Add(payload[:len(payload)/2])
	f.Add([]byte("CHSS"))

	f.Fuzz(func(t *testing.T, data []byte) {
		w := snapshot.NewWriter(snapshot.KindWeights, 0)
		for _, b := range data {
			w.U8(b)
		}
		for _, file := range [][]byte{data, w.Finish()} {
			dir := t.TempDir()
			p := filepath.Join(dir, "w.tcnw")
			if err := os.WriteFile(p, file, 0o644); err != nil {
				t.Skip()
			}
			n, err := Load(p)
			if err != nil {
				if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrStale) {
					t.Fatalf("untyped rejection: %v", err)
				}
				continue
			}
			if n.Topology != SmallName && n.Topology != BigName {
				t.Fatalf("Load accepted unknown topology %q", n.Topology)
			}
			re := filepath.Join(dir, "re.tcnw")
			if err := Save(n, re); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(re)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, file) {
				t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(file), len(got))
			}
		}
	})
}
