package core

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzLoadProfiles throws arbitrary bytes at the CHRS profile-store
// decoder. The contract under fuzz: LoadProfiles never panics; a header
// count beyond the zoo's configuration space is rejected, so allocation
// stays bounded whatever the header claims; and whatever it accepts
// survives SaveProfiles → LoadProfiles with the same count, model
// indices, threshold and execution target.
func FuzzLoadProfiles(f *testing.F) {
	z, err := NewZoo(
		&fakeEst{name: "cheap", ops: 3_000, bias: 10},
		&fakeEst{name: "mid", ops: 80_000, bias: 5},
		&fakeEst{name: "best", ops: 12_000_000, bias: 2},
	)
	if err != nil {
		f.Fatal(err)
	}
	maxCount := len(z.EnumerateConfigs())
	index := map[string]int{}
	for i, m := range z.Models() {
		index[m.Name()] = i
	}

	// Seeds: a valid two-profile table, the empty stream, a bare header,
	// a truncated record, and the two hostile inputs LoadProfiles rejects
	// (a huge count, an unknown execution byte).
	var buf bytes.Buffer
	seed := []Profile{
		{Config: Config{Simple: z.Models()[0], Complex: z.Models()[2], Threshold: 3, Exec: Hybrid}, MAE: 4.5},
		{Config: Config{Simple: z.Models()[1], Complex: z.Models()[2], Threshold: 8, Exec: Local}, MAE: 6},
	}
	if err := SaveProfiles(&buf, z, seed); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte(nil))
	f.Add(valid[:12])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte("CHRS\x01\x00\x00\x00\xff\xff\xff\xff"))
	badExec := append([]byte(nil), valid...)
	badExec[len(storeMagic)+4+4+3] = 7
	f.Add(badExec)

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadProfiles(bytes.NewReader(data), z)
		if len(data) >= 12 && string(data[:4]) == storeMagic &&
			binary.LittleEndian.Uint32(data[4:8]) == storeVersion &&
			int64(binary.LittleEndian.Uint32(data[8:12])) > int64(maxCount) && err == nil {
			t.Fatalf("header count %d beyond %d configurations accepted",
				binary.LittleEndian.Uint32(data[8:12]), maxCount)
		}
		if err != nil {
			return // rejected input: nothing else to hold
		}
		if len(loaded) > maxCount {
			t.Fatalf("accepted %d profiles, the zoo has %d configurations", len(loaded), maxCount)
		}
		var out bytes.Buffer
		if err := SaveProfiles(&out, z, loaded); err != nil {
			t.Fatalf("accepted table does not re-save: %v", err)
		}
		again, err := LoadProfiles(&out, z)
		if err != nil {
			t.Fatalf("re-saved table rejected: %v", err)
		}
		if len(again) != len(loaded) {
			t.Fatalf("round trip changed count %d → %d", len(loaded), len(again))
		}
		for i := range loaded {
			a, b := loaded[i], again[i]
			if index[a.Simple.Name()] != index[b.Simple.Name()] ||
				index[a.Complex.Name()] != index[b.Complex.Name()] ||
				a.Threshold != b.Threshold || a.Exec != b.Exec {
				t.Fatalf("profile %d round trip: %s vs %s", i, a.Name(), b.Name())
			}
		}
	})
}
