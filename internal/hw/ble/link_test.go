package ble

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWindowCalibration(t *testing.T) {
	l := New()
	if got := l.TransmitSeconds(WindowBytes) * 1e3; math.Abs(got-10.24) > 1e-6 {
		t.Errorf("window time = %v ms, want 10.24", got)
	}
	if got := l.WindowTransmitEnergy().MilliJoules(); math.Abs(got-0.52) > 1e-6 {
		t.Errorf("window energy = %v mJ, want 0.52", got)
	}
}

func TestPacketsMonotonic(t *testing.T) {
	l := New()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return l.Packets(x) <= l.Packets(y) && l.TransmitSeconds(x) <= l.TransmitSeconds(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPacketBoundaries(t *testing.T) {
	l := New()
	if l.Packets(1) != 1 || l.Packets(244) != 1 || l.Packets(245) != 2 {
		t.Errorf("packet boundaries: %d %d %d", l.Packets(1), l.Packets(244), l.Packets(245))
	}
}

func TestConnectionState(t *testing.T) {
	l := New()
	if !l.ConnectedAt(0) {
		t.Error("link should start connected")
	}
	l.SetConnected(false)
	if l.ConnectedAt(0) {
		t.Error("SetConnected(false) ignored")
	}
}

func TestConnectivityTrace(t *testing.T) {
	tr, err := NewConnectivityTrace(true, 10, 20, 30)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    float64
		want bool
	}{
		{0, true}, {9.99, true}, {10.01, false}, {19.99, false},
		{20.01, true}, {29.99, true}, {30.01, false}, {100, false},
	}
	for _, c := range cases {
		if got := tr.UpAt(c.t); got != c.want {
			t.Errorf("UpAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if _, err := NewConnectivityTrace(true, 5, 5); err == nil {
		t.Error("non-increasing toggles accepted")
	}
}

func TestLinkWithTrace(t *testing.T) {
	l := New()
	tr, _ := NewConnectivityTrace(true, 1)
	l.UseTrace(tr)
	if !l.ConnectedAt(0.5) {
		t.Error("trace start should be up")
	}
	if l.ConnectedAt(1.5) {
		t.Error("trace after toggle should be down")
	}
}

func TestTracePrecedenceOverForcedState(t *testing.T) {
	// An attached trace wins over SetConnected; detaching restores the
	// forced state as the ConnectedAt answer.
	l := New()
	l.SetConnected(false)
	tr, _ := NewConnectivityTrace(true)
	l.UseTrace(tr)
	if l.Trace() != tr {
		t.Fatal("Trace() does not report the attached trace")
	}
	if !l.ConnectedAt(10) {
		t.Error("attached up-trace should override forced-down state")
	}
	l.UseTrace(nil)
	if l.Trace() != nil || l.ConnectedAt(10) {
		t.Error("detaching the trace should restore the forced state")
	}
}

func TestConnectivityTraceEdges(t *testing.T) {
	// Toggle exactly at t=0: the start state holds at the instant itself
	// (toggles apply just after their instant) and flips afterwards.
	atZero, err := NewConnectivityTrace(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !atZero.UpAt(0) {
		t.Error("UpAt(0) with a toggle at 0 should report the start state")
	}
	if atZero.UpAt(0.001) || atZero.UpAt(100) {
		t.Error("state should flip just after the t=0 toggle")
	}

	// Empty toggle list: the start state holds forever.
	empty, err := NewConnectivityTrace(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 1, 1e6} {
		if empty.UpAt(tt) {
			t.Errorf("empty down-trace UpAt(%v) = true", tt)
		}
	}
	emptyUp, _ := NewConnectivityTrace(true)
	for _, tt := range []float64{0, 1, 1e6} {
		if !emptyUp.UpAt(tt) {
			t.Errorf("empty up-trace UpAt(%v) = false", tt)
		}
	}

	// Invalid toggle lists are rejected.
	if _, err := NewConnectivityTrace(true, 5, 4); err == nil {
		t.Error("decreasing toggles accepted")
	}
	if _, err := NewConnectivityTrace(true, -1, 4); err == nil {
		t.Error("negative toggle accepted")
	}
}
