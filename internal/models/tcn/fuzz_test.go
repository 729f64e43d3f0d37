package tcn

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/snapshot"
)

// FuzzLoad feeds arbitrary bytes to the weight-file decoder behind Load,
// both as a whole frame and as a payload sealed into a valid frame (a
// mutated frame almost always fails its CRC, so the sealed form is what
// reaches the payload checks). It runs in memory: Load itself only adds
// the file read. The decoder must never panic, must reject with a typed
// snapshot error, and must never accept a frame whose topology it cannot
// name; whatever it accepts re-encodes byte-identically to the bytes
// Save writes, so truncation, appended garbage or non-finite weights can
// never be half-loaded. The committed corpus holds a parent-format
// (TCNW) header, which now only exercises rejection.
func FuzzLoad(f *testing.F) {
	net := NewTimePPGSmall()
	net.InitWeights(1)
	valid := encode(net)
	payload := valid[24 : len(valid)-4] // strip the frame header and CRC
	f.Add(valid)
	f.Add(payload)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0xAA))
	f.Add(payload[:len(payload)/2])
	f.Add([]byte("CHSS"))

	f.Fuzz(func(t *testing.T, data []byte) {
		w := snapshot.NewWriterSize(snapshot.KindWeights, 0, len(data))
		for _, b := range data {
			w.U8(b)
		}
		for _, frame := range [][]byte{data, w.Finish()} {
			n, err := decode(frame)
			if err != nil {
				if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrStale) {
					t.Fatalf("untyped rejection: %v", err)
				}
				continue
			}
			if n.Topology != SmallName && n.Topology != BigName {
				t.Fatalf("decode accepted unknown topology %q", n.Topology)
			}
			if got := encode(n); !bytes.Equal(got, frame) {
				t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(frame), len(got))
			}
		}
	})
}
