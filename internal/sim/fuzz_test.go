package sim

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw/power"
	"repro/internal/snapshot"
)

// FuzzSimState throws arbitrary bytes at the sim-state codec, which reads
// fleet sidecar files from disk, both as a whole frame and as a payload
// sealed into a valid frame (a mutated frame almost always fails its CRC,
// so the sealed form is what reaches the field checks). The contract:
// DecodeState never panics, every rejection is ErrCorrupt or ErrStale,
// and whatever it accepts re-encodes to the exact frame bytes.
func FuzzSimState(f *testing.F) {
	const hash = 0x5eed
	sys, engine, ws := fixture(f)
	// A 4-bin prior keeps the belief-on seeds near 300 bytes; a default
	// 90-bin posterior alone is 720, and the fuzzer's time to minimize a
	// new input grows with its length.
	tab, err := belief.LearnWindows(belief.Grid{Bins: 4, MinHR: 30, BinW: 50}, ws, belief.DefaultLearnConfig())
	if err != nil {
		f.Fatal(err)
	}
	pol := belief.DefaultPolicy(tab)
	base := Config{System: sys, Engine: engine, Constraint: core.MAEConstraint(6),
		Windows: ws, DurationSeconds: 120, IncludeSensors: true}
	withBelief := base
	withBelief.Belief = pol
	withFaults := withBelief
	withFaults.Battery = power.NewLiIon370()
	withFaults.Faults = mustInjector(f, faults.WorstCase(), 3)
	for _, cfg := range []Config{base, withBelief, withFaults} {
		var st State
		if err := RunState(cfg, &st, 40); err != nil {
			f.Fatal(err)
		}
		frame := EncodeState(&st, hash)
		f.Add(frame)
		f.Add(frame[24 : len(frame)-4]) // the payload alone
	}
	f.Add(EncodeState(&State{}, hash))
	f.Add([]byte("CHSS"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := snapshot.NewWriter(snapshot.KindSimState, hash)
		for _, b := range data {
			sealed.U8(b)
		}
		for _, frame := range [][]byte{data, sealed.Finish()} {
			st, err := DecodeState(frame, hash)
			if err != nil {
				if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrStale) {
					t.Fatalf("untyped rejection: %v", err)
				}
				continue
			}
			if !bytes.Equal(EncodeState(st, hash), frame) {
				t.Fatal("accepted frame does not re-encode byte-identically")
			}
		}
	})
}
