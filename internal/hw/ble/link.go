// Package ble models the Bluetooth Low Energy 5.0 link between the HWatch
// (STM32WB's Cortex-M0+ network core + radio) and the phone.
//
// The packet model uses data-length-extension packets (244-byte
// application payload) on the 2M PHY plus a per-packet overhead covering
// header, inter-frame spaces and the acknowledgement. The overhead is
// calibrated so that one 2048-byte analysis window (256 samples × 4
// channels × 16 bit) costs 10.24 ms of radio time and 0.52 mJ, matching
// the fixed BLE row of the paper's Table III.
//
// On top of the lossless calibrated model sits an optional lossy layer
// (channel.go): a Gilbert–Elliott two-state burst channel, per-packet
// retransmissions charged as real airtime and radio energy
// (TransmitLossy), and a supervision-timeout rule converting sustained
// loss into a link drop. The lossless path is untouched: a nil or
// all-zero channel reproduces the calibrated window cost bitwise.
//
// Link state precedence: an attached ConnectivityTrace (UseTrace) always
// wins over the static state forced with SetConnected; ConnectedAt
// consults the trace first and falls back to the forced state only when
// no trace is attached. Callers that need time-dependent state must go
// through ConnectedAt — Connected reports only the static flag.
package ble

import (
	"fmt"
	"sort"

	"repro/internal/hw/power"
)

// WindowBytes is the payload of one offloaded analysis window:
// 256 samples × (1 PPG + 3 accel) channels × 2 bytes.
const WindowBytes = 2048

// Link models the radio link.
type Link struct {
	// PayloadPerPacket is the application bytes per DLE packet.
	PayloadPerPacket int
	// BitRate of the PHY (2M PHY).
	BitRate float64
	// PacketOverheadSeconds covers preamble, headers, MIC, IFS and the
	// empty acknowledgement, per packet.
	PacketOverheadSeconds float64
	// RadioPower is the board-side power while the radio is busy.
	RadioPower power.Power
	// SupervisionRetransmits is the consecutive-failure budget of one
	// packet before TransmitLossy declares a supervision-timeout drop
	// (0 means DefaultSupervisionRetransmits).
	SupervisionRetransmits int

	connected bool
	trace     *ConnectivityTrace
}

// New returns the calibrated link, initially connected.
func New() *Link {
	return &Link{
		PayloadPerPacket: 244,
		BitRate:          2e6,
		// Calibrated: 9 packets for 2048 B must take 10.24 ms total; the
		// pure payload airtime is 2048·8/2 Mbit ≈ 8.192 ms, so each packet
		// carries (10.24 − 8.192)/9 ≈ 0.2276 ms of overhead (headers,
		// inter-frame spaces, acknowledgement).
		PacketOverheadSeconds:  (10.24e-3 - WindowBytes*8/2e6) / 9,
		RadioPower:             power.Power(0.52e-3 / 10.24e-3), // ≈50.8 mW
		SupervisionRetransmits: DefaultSupervisionRetransmits,
		connected:              true,
	}
}

// Packets returns the DLE packet count for a payload.
func (l *Link) Packets(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	return (bytes + l.PayloadPerPacket - 1) / l.PayloadPerPacket
}

// TransmitSeconds returns the radio-busy time for a payload.
func (l *Link) TransmitSeconds(bytes int) float64 {
	n := l.Packets(bytes)
	payloadTime := float64(bytes) * 8 / l.BitRate
	return payloadTime + float64(n)*l.PacketOverheadSeconds
}

// TransmitEnergy returns the watch-side energy of streaming a payload.
func (l *Link) TransmitEnergy(bytes int) power.Energy {
	return l.RadioPower.Over(l.TransmitSeconds(bytes))
}

// WindowTransmitEnergy is the fixed per-window streaming cost (0.52 mJ).
func (l *Link) WindowTransmitEnergy() power.Energy {
	return l.TransmitEnergy(WindowBytes)
}

// SetConnected forces the static link state (used by tests and
// scenarios). An attached trace takes precedence over it — detach with
// UseTrace(nil) first to make a forced state observable via ConnectedAt.
func (l *Link) SetConnected(up bool) { l.connected = up }

// UseTrace attaches a connectivity trace; ConnectedAt then follows it,
// overriding any state forced with SetConnected, until UseTrace(nil)
// detaches it again.
func (l *Link) UseTrace(tr *ConnectivityTrace) { l.trace = tr }

// Trace returns the attached connectivity trace (nil when none).
func (l *Link) Trace() *ConnectivityTrace { return l.trace }

// ConnectedAt reports the link state at an absolute time: the attached
// trace when one is present, otherwise the static (possibly forced)
// state. This is the single authority on link state for time-based
// callers; sim.Run routes all connectivity decisions through it.
func (l *Link) ConnectedAt(t float64) bool {
	if l.trace == nil {
		return l.connected
	}
	return l.trace.UpAt(t)
}

// ConnectivityTrace is a sorted sequence of link-state change events.
type ConnectivityTrace struct {
	// event times (seconds) at which the state toggles; the link starts
	// in StartUp state.
	toggles []float64
	startUp bool
}

// NewConnectivityTrace builds a trace from toggle times, which must be
// non-negative and strictly increasing. An empty toggle list is valid:
// the link holds its start state forever.
func NewConnectivityTrace(startUp bool, toggles ...float64) (*ConnectivityTrace, error) {
	if len(toggles) > 0 && toggles[0] < 0 {
		return nil, fmt.Errorf("ble: toggle times must be non-negative")
	}
	for i := 1; i < len(toggles); i++ {
		if toggles[i] <= toggles[i-1] {
			return nil, fmt.Errorf("ble: toggle times must be strictly increasing")
		}
	}
	return &ConnectivityTrace{toggles: append([]float64(nil), toggles...), startUp: startUp}, nil
}

// UpAt reports the link state at time t.
func (tr *ConnectivityTrace) UpAt(t float64) bool {
	n := sort.SearchFloat64s(tr.toggles, t)
	// Before toggle[0]: start state; each toggle flips it. For t equal to
	// a toggle instant, SearchFloat64s returns its index, so the toggle
	// has not yet applied — state changes just after the instant.
	if n%2 == 0 {
		return tr.startUp
	}
	return !tr.startUp
}
