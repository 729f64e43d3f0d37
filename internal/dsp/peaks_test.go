package dsp

import "testing"

func TestRegionsAbove(t *testing.T) {
	x := []float64{0, 2, 3, 0, 4, 5, 6, 0}
	thr := make([]float64, len(x))
	for i := range thr {
		thr[i] = 1
	}
	regions := RegionsAbove(x, thr)
	want := []Region{{1, 3}, {4, 7}}
	if len(regions) != len(want) {
		t.Fatalf("regions = %v, want %v", regions, want)
	}
	for i := range want {
		if regions[i] != want[i] {
			t.Errorf("region %d = %v, want %v", i, regions[i], want[i])
		}
	}
}

func TestRegionsAboveOpenEnd(t *testing.T) {
	x := []float64{0, 2, 2}
	thr := []float64{1, 1, 1}
	regions := RegionsAbove(x, thr)
	if len(regions) != 1 || regions[0] != (Region{1, 3}) {
		t.Errorf("regions = %v, want [{1 3}]", regions)
	}
}

func TestArgMax(t *testing.T) {
	x := []float64{1, 9, 2, 7, 3}
	if got := ArgMax(x, 0, len(x)); got != 1 {
		t.Errorf("ArgMax full = %d, want 1", got)
	}
	if got := ArgMax(x, 2, 5); got != 3 {
		t.Errorf("ArgMax [2,5) = %d, want 3", got)
	}
	if got := ArgMax(x, 4, 99); got != 4 {
		t.Errorf("ArgMax clipped = %d, want 4", got)
	}
}
