package faults

import (
	"math"
	"reflect"
	"testing"
)

// FuzzScenarioValidate drives the strict JSON codec and, for every
// scenario that survives validation, exercises the injector's query
// surface: a validated scenario must never make a query panic, loop
// without bound, or fail to round-trip through the encoder.
func FuzzScenarioValidate(f *testing.F) {
	for _, name := range Names() {
		sc, _ := ByName(name)
		if data, err := EncodeScenario(sc); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"Name":"x","PeriodSeconds":60,"Flaps":[{"From":1,"To":2}]}`))
	f.Add([]byte(`{"PeriodSeconds":1e-9}`))
	f.Add([]byte(`{"Loss":[{"From":0,"Channel":{"GoodLoss":1.5}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		// Round trip: a scenario the parser accepts must re-encode and
		// re-parse to the same value.
		enc, err := EncodeScenario(sc)
		if err != nil {
			t.Fatalf("accepted scenario fails to encode: %v", err)
		}
		back, err := ParseScenario(enc)
		if err != nil {
			t.Fatalf("re-encoded scenario fails to parse: %v", err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("round trip changed the scenario:\n  in  %+v\n  out %+v", sc, back)
		}
		inj, err := NewInjector(sc, 1)
		if err != nil {
			t.Fatalf("validated scenario rejected by NewInjector: %v", err)
		}
		for _, at := range []float64{0, 0.5, 1, 59.9, 3600, 1e9} {
			inj.ChannelAt(at)
			inj.ForcedDown(at)
			inj.ResponseLatency(at)
			inj.PhoneAvailable(at)
		}
		// Bounded brown-out window: ≤ 10 repetitions of the script, so the
		// per-occurrence iteration stays cheap even for tiny valid periods.
		horizon := 1e6
		if sc.PeriodSeconds > 0 {
			horizon = 10 * sc.PeriodSeconds
		}
		inj.BrownOutBetween(0, horizon)
	})
}

// FuzzWrapMatchesMod pins the fast scenario phase to its definition: for
// any finite t, negative included, and any period Validate accepts, wrap
// must return math.Mod(t, period) bit for bit (the sign of a zero too).
// The seeds sit where a quotient estimate goes wrong: exact multiples of
// the period and their neighbours one ulp away, even t = 2k, and t/p past
// 2^53 where ⌊t/p⌋ no longer holds every integer.
func FuzzWrapMatchesMod(f *testing.F) {
	for _, p := range []float64{minPeriodSeconds, 0.1, 1, 3, 60, 86400, 1e300} {
		for _, k := range []float64{0, 1, 2, 3, 7, 1e3, 43200, 1 << 52, 1 << 53, 1 << 60} {
			m := k * p
			f.Add(m, p)
			f.Add(math.Nextafter(m, math.Inf(1)), p)
			f.Add(math.Nextafter(m, math.Inf(-1)), p)
			f.Add(-m, p)
			f.Add(2*k, p)
		}
	}
	f.Add(-0.0, 60.0)
	f.Add(1e308, 1e-3)
	f.Add(4.9e-324, 1e-3)
	f.Add(0.30000000000000004, 0.1)

	f.Fuzz(func(t *testing.T, x, p float64) {
		sc := Scenario{PeriodSeconds: p}
		if math.IsNaN(x) || math.IsInf(x, 0) || p <= 0 || sc.Validate() != nil {
			return
		}
		got, want := sc.wrap(x), math.Mod(x, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("wrap(%v) with period %v = %v (%#x), math.Mod = %v (%#x)",
				x, p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
