package sim

import (
	"math"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/hw/ble"
	"repro/internal/hw/power"
)

// This file holds the offload protocol state machine that Step runs for
// every offloaded window under a fault injector.

// OffloadOutcome is the resolution of one window's offload pipeline:
// whether the phone's answer arrived in time, what the attempt(s) cost,
// and which robustness counters they incremented.
type OffloadOutcome struct {
	// Success is true when a phone response landed within both the
	// per-attempt timeout and the window deadline; the caller then uses
	// the complex model's estimate. On false the caller must degrade the
	// window to the watch-side simple model.
	Success bool
	// Busy is the watch radio airtime consumed (seconds).
	Busy float64
	// RadioEnergy is the total watch-side radio energy of all attempts.
	RadioEnergy power.Energy
	// RetransmitEnergy is the radio energy beyond the lossless per-window
	// streaming cost (retransmissions and wasted transfers).
	RetransmitEnergy power.Energy
	// PhoneComputes counts phone-side inferences (the phone computes even
	// when its reply arrives late — that energy is spent either way).
	PhoneComputes int
	// Retries counts re-attempts after a timeout; Timeouts counts
	// attempts abandoned without a timely phone response.
	Retries, Timeouts int
	// RetransmitPackets counts lost transmissions that were repeated.
	RetransmitPackets int
	// SupervisionDrop is true when sustained loss killed the connection
	// mid-transfer; the caller must hold the link down for
	// Protocol.ReconnectSeconds.
	SupervisionDrop bool
	// Fault is true when anything at all went wrong (loss, retry,
	// timeout, drop) — the window counts toward FaultWindows even if a
	// later attempt succeeded.
	Fault bool
}

// backoff returns the exponential backoff before retry number attempt+1.
// math.Ldexp scales by 2^attempt without the integer shift that a large
// retry budget would overflow (1<<attempt wraps to 0 at attempt 64,
// silently re-arming instant retries); Ldexp saturates to +Inf instead,
// which the deadline check below turns into "stop retrying".
func (p Protocol) backoff(attempt int) float64 {
	return math.Ldexp(p.BackoffSeconds, attempt)
}

// ResolveOffload runs the full offload pipeline for one window arriving at
// absolute time t: transmit over the burst channel, await the phone
// response under the per-attempt timeout, retry with exponential backoff
// inside the window deadline, then give up. phoneSeconds is the phone's
// compute time for the offloaded model. All probabilistic outcomes come
// from ch+rng and all time-dependent fault state from inj, so equal
// inputs replay the exact attempt sequence. The channel's Markov state
// persists across calls, exactly as a real fading link does. Every
// attempt of a window is stamped with the window's arrival t, so the
// loss segment is looked up once per window, not once per attempt.
func (p Protocol) ResolveOffload(sys *hw.System, inj *faults.Injector, ch *ble.Channel,
	rng *faults.Rand, phoneSeconds, t, deadline float64) OffloadOutcome {

	var out OffloadOutcome
	elapsed := 0.0
	cleanTx := sys.Link.WindowTransmitEnergy()
	ch.SetParams(inj.ChannelAt(t))
	for attempt := 0; ; attempt++ {
		tr := sys.Link.TransmitLossy(ble.WindowBytes, ch, rng)
		out.RadioEnergy += tr.Energy
		out.Busy += tr.Seconds
		elapsed += tr.Seconds
		out.RetransmitPackets += tr.Retransmits
		if tr.Retransmits > 0 || !tr.Delivered {
			out.Fault = true
		}
		if tr.Delivered {
			out.RetransmitEnergy += tr.Energy - cleanTx
		} else {
			out.RetransmitEnergy += tr.Energy
		}
		if !tr.Delivered {
			// Supervision timeout: the connection is gone; no retry can
			// succeed until the stack reconnects.
			out.SupervisionDrop = true
			return out
		}
		if inj.PhoneAvailable(t) {
			resp := phoneSeconds + inj.ResponseLatency(t)
			// The phone computes even when its reply will arrive late;
			// that energy is spent either way.
			out.PhoneComputes++
			if resp <= p.AttemptTimeoutSeconds {
				if elapsed+resp <= deadline {
					out.Success = true
					return out
				}
				// Response in time for the attempt but past the window
				// deadline: retrying cannot help.
				out.Timeouts++
				out.Fault = true
				return out
			}
		}
		out.Timeouts++
		out.Fault = true
		elapsed += p.AttemptTimeoutSeconds
		if attempt >= p.MaxRetries {
			return out
		}
		back := p.backoff(attempt)
		if elapsed+back >= deadline {
			return out
		}
		elapsed += back
		out.Retries++
	}
}
