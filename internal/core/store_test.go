package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/hw"
)

func TestProfileStoreRoundTrip(t *testing.T) {
	sys := hw.NewSystem()
	z := threeModelZoo(t)
	recs := buildRecords(40,
		z.Models()[0].(*fakeEst), z.Models()[1].(*fakeEst), z.Models()[2].(*fakeEst))
	profiles, err := ProfileConfigs(z.EnumerateConfigs(), recs, sys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveProfiles(&buf, z, profiles); err != nil {
		t.Fatal(err)
	}
	// 60 records at 28 bytes each plus header: comfortably MCU-sized.
	if buf.Len() > 2048 {
		t.Errorf("store size %d bytes exceeds the 2 KiB budget", buf.Len())
	}
	loaded, err := LoadProfiles(&buf, z)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(profiles) {
		t.Fatalf("loaded %d profiles, want %d", len(loaded), len(profiles))
	}
	for i := range profiles {
		a, b := profiles[i], loaded[i]
		if a.Simple.Name() != b.Simple.Name() || a.Complex.Name() != b.Complex.Name() ||
			a.Threshold != b.Threshold || a.Exec != b.Exec {
			t.Fatalf("profile %d config mismatch: %s vs %s", i, a.Name(), b.Name())
		}
		// Stored as float32: compare with that precision.
		if math.Abs(a.MAE-b.MAE) > 1e-3 {
			t.Fatalf("profile %d MAE %v vs %v", i, a.MAE, b.MAE)
		}
		if math.Abs(float64(a.WatchEnergy-b.WatchEnergy)) > 1e-6*(1+math.Abs(float64(a.WatchEnergy))) {
			t.Fatalf("profile %d energy %v vs %v", i, a.WatchEnergy, b.WatchEnergy)
		}
	}
	// A loaded store must be directly usable by the engine.
	cls, _ := trainedClassifier(t)
	if _, err := NewEngine(loaded, cls); err != nil {
		t.Fatalf("engine rejects loaded store: %v", err)
	}
}

func TestProfileStoreErrors(t *testing.T) {
	z := threeModelZoo(t)
	other, _ := NewZoo(&fakeEst{name: "x"}, &fakeEst{name: "y"})
	profiles := []Profile{{Config: Config{
		Simple:  &fakeEst{name: "ghost"},
		Complex: z.Models()[0],
	}}}
	var buf bytes.Buffer
	if err := SaveProfiles(&buf, z, profiles); err == nil {
		t.Error("foreign model accepted by SaveProfiles")
	}
	buf.Reset()
	good := []Profile{{Config: Config{Simple: z.Models()[0], Complex: z.Models()[2], Threshold: 3, Exec: Hybrid}}}
	if err := SaveProfiles(&buf, z, good); err != nil {
		t.Fatal(err)
	}
	// Loading against a smaller zoo must fail on the out-of-range index.
	if _, err := LoadProfiles(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("out-of-zoo index accepted by LoadProfiles")
	}
	if _, err := LoadProfiles(bytes.NewReader([]byte("JUNKJUNKJUNK")), z); err == nil {
		t.Error("garbage accepted by LoadProfiles")
	}
	if _, err := LoadProfiles(bytes.NewReader(nil), z); err == nil {
		t.Error("empty stream accepted")
	}
	// A hostile count must fail before it sizes an allocation: 0xffffffff
	// profiles would ask for hundreds of GiB.
	if _, err := LoadProfiles(bytes.NewReader([]byte("CHRS\x01\x00\x00\x00\xff\xff\xff\xff")), z); err == nil {
		t.Error("count beyond the zoo's configuration space accepted")
	}
	// An execution byte outside {Local, Hybrid} must not load as Local.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(storeMagic)+4+4+3] = 7
	if _, err := LoadProfiles(bytes.NewReader(bad), z); err == nil {
		t.Error("unknown execution target accepted")
	}
}
