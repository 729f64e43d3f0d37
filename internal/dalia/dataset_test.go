package dalia

import "testing"

func TestDatasetWindows(t *testing.T) {
	c := tinyConfig()
	ds, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := ds.SubjectWindows(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 {
		t.Fatal("no windows")
	}
	for i := range ws {
		w := &ws[i]
		if len(w.PPG) != c.WindowSamples {
			t.Fatalf("window %d has %d samples", i, len(w.PPG))
		}
		if i > 0 && w.Start-ws[i-1].Start != c.StrideSamples {
			t.Fatalf("stride between windows %d and %d is %d", i-1, i, w.Start-ws[i-1].Start)
		}
		if !w.Activity.Valid() {
			t.Fatalf("window %d has invalid activity", i)
		}
		if w.TrueHR < 35 || w.TrueHR > 210 {
			t.Fatalf("window %d TrueHR %v out of range", i, w.TrueHR)
		}
	}
}

func TestDatasetCacheAndRelease(t *testing.T) {
	ds, _ := New(tinyConfig())
	r1, err := ds.Recording(1)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := ds.Recording(1)
	if r1 != r2 {
		t.Error("recording not cached")
	}
	ds.Release(1)
	r3, _ := ds.Recording(1)
	if r1 == r3 {
		t.Error("Release did not evict the cache")
	}
	// Regenerated recording must be byte-identical (determinism).
	for i := range r1.PPG {
		if r1.PPG[i] != r3.PPG[i] {
			t.Fatal("regenerated recording differs")
		}
	}
}

func TestCollectAndStream(t *testing.T) {
	ds, _ := New(tinyConfig())
	ws, err := ds.CollectWindows([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	for _, s := range []int{0, 1} {
		sw, err := ds.SubjectWindows(s)
		if err != nil {
			t.Fatal(err)
		}
		streamed += len(sw)
		ds.Release(s)
	}
	if streamed != len(ws) {
		t.Errorf("streamed %d windows, collected %d", streamed, len(ws))
	}
}

func TestSplitSubjects(t *testing.T) {
	ds, _ := New(tinyConfig()) // 4 subjects
	tr, pr, te, err := ds.SplitSubjects(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 || len(pr) != 1 || len(te) != 1 {
		t.Errorf("split sizes = %d/%d/%d, want 2/1/1", len(tr), len(pr), len(te))
	}
	if _, _, _, err := ds.SplitSubjects(3, 1); err == nil {
		t.Error("overfull split accepted")
	}
}

func TestWindowsDegenerate(t *testing.T) {
	if Windows(nil, 256, 64) != nil {
		t.Error("nil recording should give nil windows")
	}
	rec := &Recording{PPG: make([]float64, 100)}
	if got := Windows(rec, 256, 64); got != nil {
		t.Errorf("short recording should give no windows, got %d", len(got))
	}
}
