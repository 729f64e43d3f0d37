package power

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestUnitsRoundTrip(t *testing.T) {
	if got := MilliJoules(0.52).MilliJoules(); math.Abs(got-0.52) > 1e-12 {
		t.Errorf("mJ round trip = %v", got)
	}
	if got := MicroJoules(179).MicroJoules(); math.Abs(got-179) > 1e-9 {
		t.Errorf("µJ round trip = %v", got)
	}
}

func TestPowerOver(t *testing.T) {
	e := MilliWatts(10).Over(2) // 10 mW × 2 s = 20 mJ
	if math.Abs(e.MilliJoules()-20) > 1e-12 {
		t.Errorf("Over = %v mJ, want 20", e.MilliJoules())
	}
}

func TestStrings(t *testing.T) {
	if s := MicroJoules(179).String(); !strings.Contains(s, "µJ") {
		t.Errorf("µJ String = %q", s)
	}
	if s := MilliJoules(41.11).String(); !strings.Contains(s, "mJ") {
		t.Errorf("mJ String = %q", s)
	}
	if s := Energy(2).String(); !strings.Contains(s, " J") {
		t.Errorf("J String = %q", s)
	}
	if s := Energy(0).String(); s != "0 J" {
		t.Errorf("zero energy String = %q", s)
	}
	if s := MicroWatts(97.2).String(); !strings.Contains(s, "µW") {
		t.Errorf("µW String = %q", s)
	}
	if s := Power(1.6).String(); !strings.Contains(s, " W") {
		t.Errorf("W String = %q", s)
	}
	if s := Power(0).String(); s != "0 W" {
		t.Errorf("zero power String = %q", s)
	}
	if s := MilliWatts(25).String(); !strings.Contains(s, "mW") {
		t.Errorf("mW String = %q", s)
	}
}

func TestConverter(t *testing.T) {
	c := NewTPS63031()
	load := MilliJoules(9)
	if got := c.FromBattery(load).MilliJoules(); math.Abs(got-10) > 1e-9 {
		t.Errorf("FromBattery = %v mJ, want 10", got)
	}
	degenerate := Converter{}
	if degenerate.FromBattery(load) != load {
		t.Error("zero-efficiency converter should pass through")
	}
}

func TestBatteryCapacity(t *testing.T) {
	b := NewLiIon370()
	want := 0.370 * 3.7 * 3600
	if math.Abs(float64(b.Capacity)-want) > 1e-9 {
		t.Errorf("capacity = %v J, want %v", float64(b.Capacity), want)
	}
	if b.SoC() != 1 {
		t.Errorf("fresh SoC = %v", b.SoC())
	}
}

func TestBatteryDrain(t *testing.T) {
	b := NewLiIon370()
	half := b.Capacity / 2
	if err := b.Drain(half); err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.SoC()-0.5) > 1e-12 {
		t.Errorf("SoC after half drain = %v", b.SoC())
	}
	if err := b.Drain(b.Capacity); err == nil {
		t.Error("over-drain accepted")
	}
	if b.Remaining() != 0 {
		t.Errorf("remaining after exhaustion = %v", b.Remaining())
	}
	if err := b.Drain(Energy(-1)); err == nil {
		t.Error("negative drain accepted")
	}
	if err := b.Restore(b.Capacity); err != nil || b.SoC() != 1 {
		t.Errorf("restoring a full charge: SoC %v, err %v", b.SoC(), err)
	}
}

func TestBatteryLifetime(t *testing.T) {
	b := NewLiIon370()
	// At ~1 mW average the 4.93 kJ battery lasts ≈1369 hours.
	h := b.LifetimeHours(MilliWatts(1))
	if math.Abs(h-1369) > 2 {
		t.Errorf("lifetime = %v h, want ≈1369", h)
	}
	if b.LifetimeHours(0) != 0 {
		t.Error("zero power should report zero lifetime")
	}
}

// Property: draining in two steps equals draining once (when both succeed).
func TestDrainAdditiveQuick(t *testing.T) {
	f := func(a, b uint16) bool {
		bat1 := NewLiIon370()
		bat2 := NewLiIon370()
		ea := Energy(float64(a))
		eb := Energy(float64(b))
		if float64(ea+eb) > float64(bat1.Capacity) {
			return true
		}
		if err := bat1.Drain(ea); err != nil {
			return false
		}
		if err := bat1.Drain(eb); err != nil {
			return false
		}
		if err := bat2.Drain(ea + eb); err != nil {
			return false
		}
		return math.Abs(float64(bat1.Remaining()-bat2.Remaining())) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
