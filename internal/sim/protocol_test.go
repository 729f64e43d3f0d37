package sim

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/hw/ble"
	"repro/internal/models/at"
)

func protoFixture(t *testing.T, sc faults.Scenario) (*hw.System, *faults.Injector, *ble.Channel, *faults.Rand) {
	t.Helper()
	sys := hw.NewSystem()
	inj, err := faults.NewInjector(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys, inj, &ble.Channel{}, faults.NewRand(2).Fork("test-packets")
}

func phoneDownScenario() faults.Scenario {
	return faults.Scenario{Name: "phone-down", PhoneDown: []faults.Interval{{From: 0, To: 1e9}}}
}

// A zero retry budget means exactly one attempt: the first timeout must
// end the pipeline without touching the backoff machinery.
func TestResolveOffloadZeroRetries(t *testing.T) {
	sys, inj, ch, rng := protoFixture(t, phoneDownScenario())
	p := DefaultProtocol()
	p.MaxRetries = 0
	out := p.ResolveOffload(sys, inj, ch, rng, sys.Phone.ComputeSeconds(at.New()), 0, 1.0)
	if out.Success {
		t.Fatal("offload succeeded with the phone down")
	}
	if out.Retries != 0 || out.Timeouts != 1 {
		t.Fatalf("retries %d timeouts %d, want 0/1", out.Retries, out.Timeouts)
	}
	if out.PhoneComputes != 0 {
		t.Fatalf("phone computed %d times while unavailable", out.PhoneComputes)
	}
	if !out.Fault {
		t.Fatal("timed-out window not flagged as a fault")
	}
}

// DeadlineFraction 0 collapses the window deadline to the arrival
// instant: the transfer itself already overruns it, so the window must
// degrade — but the phone still computed (that energy is sunk either
// way) and the pipeline must not retry what retrying cannot fix.
func TestResolveOffloadZeroDeadline(t *testing.T) {
	sys, inj, ch, rng := protoFixture(t, faults.None())
	p := DefaultProtocol()
	out := p.ResolveOffload(sys, inj, ch, rng, sys.Phone.ComputeSeconds(at.New()), 0, 0)
	if out.Success {
		t.Fatal("offload succeeded against a zero deadline")
	}
	if out.PhoneComputes != 1 {
		t.Fatalf("phone computes %d, want 1 (late reply still costs)", out.PhoneComputes)
	}
	if out.Retries != 0 || out.Timeouts != 1 {
		t.Fatalf("retries %d timeouts %d, want 0/1 (retrying cannot beat a passed deadline)", out.Retries, out.Timeouts)
	}
	if !out.Fault {
		t.Fatal("deadline miss not flagged as a fault")
	}
}

// DeadlineFraction 1 gives the pipeline the whole period: on a clean
// link the single attempt must land with the exact lossless radio cost
// and no fault accounting.
func TestResolveOffloadFullPeriodDeadline(t *testing.T) {
	sys, inj, ch, rng := protoFixture(t, faults.None())
	p := DefaultProtocol()
	out := p.ResolveOffload(sys, inj, ch, rng, sys.Phone.ComputeSeconds(at.New()), 0, sys.PeriodSeconds)
	if !out.Success {
		t.Fatal("clean offload failed inside a full-period deadline")
	}
	if out.Fault || out.Retries != 0 || out.Timeouts != 0 || out.RetransmitPackets != 0 {
		t.Fatalf("clean run has fault accounting: %+v", out)
	}
	if out.RetransmitEnergy != 0 {
		t.Fatalf("clean run charged %v retransmit energy", out.RetransmitEnergy)
	}
	if want := sys.Link.TransmitSeconds(ble.WindowBytes); out.Busy != want {
		t.Fatalf("busy %.6f s, want bitwise clean cost %.6f s", out.Busy, want)
	}
}

// The deadline check is inclusive: a response landing exactly on the
// deadline succeeds, one epsilon past it degrades.
func TestResolveOffloadDeadlineBoundaryInclusive(t *testing.T) {
	sys, inj, ch, rng := protoFixture(t, faults.None())
	p := DefaultProtocol()
	phone := sys.Phone.ComputeSeconds(at.New())
	exact := sys.Link.TransmitSeconds(ble.WindowBytes) + phone
	if out := p.ResolveOffload(sys, inj, ch, rng, phone, 0, exact); !out.Success {
		t.Fatal("response landing exactly on the deadline must succeed")
	}
	if out := p.ResolveOffload(sys, inj, ch, rng, phone, 0, math.Nextafter(exact, 0)); out.Success {
		t.Fatal("response one ulp past the deadline must degrade")
	}
}

// A huge retry budget must be cut short by backoff saturation, not spin:
// math.Ldexp saturates to +Inf past ~2^1024, and the deadline check
// turns that into "stop retrying". The integer-shift formulation this
// replaced wrapped to zero at attempt 64 and re-armed instant retries.
func TestResolveOffloadBackoffOverflowTerminates(t *testing.T) {
	p := DefaultProtocol()
	if b := p.backoff(2000); !math.IsInf(b, 1) {
		t.Fatalf("backoff(2000) = %v, want +Inf saturation", b)
	}
	sys, inj, ch, rng := protoFixture(t, phoneDownScenario())
	p.MaxRetries = 1 << 20
	out := p.ResolveOffload(sys, inj, ch, rng, sys.Phone.ComputeSeconds(at.New()), 0, math.MaxFloat64)
	if out.Success {
		t.Fatal("offload succeeded with the phone down")
	}
	if out.Retries >= p.MaxRetries {
		t.Fatalf("ran the full %d-retry budget; saturation should stop it near attempt 1030", p.MaxRetries)
	}
	if out.Timeouts != out.Retries+1 {
		t.Fatalf("timeouts %d, want retries+1 = %d", out.Timeouts, out.Retries+1)
	}
}
