package dalia

import "testing"

func TestDifficultyOrderingMatchesMotion(t *testing.T) {
	// The static difficulty IDs must agree with the motionRMS ordering the
	// profiles encode.
	prev := -1.0
	for _, a := range Activities() {
		rms := profiles[a].motionRMS
		if rms <= prev {
			t.Errorf("%v motionRMS %.3f not increasing (prev %.3f)", a, rms, prev)
		}
		prev = rms
		if a.DifficultyID() != int(a)+1 {
			t.Errorf("%v difficulty = %d, want %d", a, a.DifficultyID(), int(a)+1)
		}
	}
}

func TestDifficultyOrderingEmpirical(t *testing.T) {
	// The generated data must reproduce the static ranking: mean window
	// accel energy strictly increasing in difficulty ID (with generous
	// sampling).
	c := DefaultConfig()
	c.DurationScale = 0.06
	c.Subjects = 3
	sum := make(map[Activity]float64)
	n := make(map[Activity]float64)
	for s := 0; s < c.Subjects; s++ {
		rec, err := GenerateSubject(c, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range Windows(rec, c.WindowSamples, c.StrideSamples) {
			if w.Purity < 1 { // skip bout-boundary windows
				continue
			}
			sum[w.Activity] += w.AccelEnergy()
			n[w.Activity]++
		}
	}
	var means []float64
	for _, a := range Activities() {
		if n[a] == 0 {
			t.Fatalf("no windows for %v", a)
		}
		means = append(means, sum[a]/n[a])
	}
	for i := 1; i < len(means); i++ {
		if means[i] <= means[i-1] {
			t.Errorf("empirical energy not increasing at rank %d: %v vs %v (%v)",
				i+1, means[i], means[i-1], Activities()[i])
		}
	}
}

func TestActivityStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Activities() {
		s := a.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate name %q", s)
		}
		seen[s] = true
		if !a.Valid() {
			t.Errorf("%v reported invalid", a)
		}
	}
	if Activity(99).Valid() {
		t.Error("Activity(99) reported valid")
	}
	if Activity(99).String() == "" {
		t.Error("invalid activity has empty String")
	}
}

func TestProtocolDurations(t *testing.T) {
	// Full-scale protocol must land near 150 min/subject so that 15
	// subjects reproduce the paper's 37.5 h.
	var total float64
	restShare := profiles[Resting].protocolMin / float64(restSlots())
	for _, a := range protocol {
		if a == Resting {
			total += restShare
		} else {
			total += profiles[a].protocolMin
		}
	}
	if total < 140 || total > 160 {
		t.Errorf("protocol duration = %.1f min, want ≈150", total)
	}
}
