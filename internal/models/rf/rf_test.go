package rf

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dalia"
)

func datasetWindows(t *testing.T, subjects int, scale float64) []dalia.Window {
	t.Helper()
	c := dalia.DefaultConfig()
	c.Subjects = subjects
	c.DurationScale = scale
	var out []dalia.Window
	for s := 0; s < subjects; s++ {
		rec, err := dalia.GenerateSubject(c, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range dalia.Windows(rec, c.WindowSamples, c.StrideSamples) {
			if w.Purity == 1 { // train/eval on unambiguous windows
				out = append(out, w)
			}
		}
	}
	return out
}

func TestTrainAndClassify(t *testing.T) {
	ws := datasetWindows(t, 3, 0.04)
	split := len(ws) * 2 / 3
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	train, test := ws[:split], ws[split:]

	cls, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	acc := cls.Accuracy(test)
	t.Logf("9-class accuracy: %.3f on %d windows", acc, len(test))
	if acc < 0.5 {
		t.Errorf("9-class accuracy %.3f too low", acc)
	}
	// The paper's claim: >90%% easy-vs-hard accuracy. Check a mid
	// threshold and the extremes.
	for _, thr := range []int{3, 5, 7} {
		ehAcc := cls.EasyHardAccuracy(test, thr)
		t.Logf("easy/hard accuracy @%d: %.3f", thr, ehAcc)
		if ehAcc < 0.85 {
			t.Errorf("easy/hard accuracy %.3f at threshold %d below 0.85", ehAcc, thr)
		}
	}
}

func TestForestRespectsMLCoreLimits(t *testing.T) {
	ws := datasetWindows(t, 2, 0.03)
	cfg := DefaultConfig()
	cls, err := Train(ws, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Trees() != cfg.Trees {
		t.Errorf("trees = %d, want %d", cls.Trees(), cfg.Trees)
	}
	// Depth counts levels including leaves: maxDepth 5 means ≤ 6 levels.
	if d := cls.MaxDepth(); d > cfg.MaxDepth+1 {
		t.Errorf("tree depth %d exceeds limit %d", d, cfg.MaxDepth+1)
	}
	if cls.Nodes() <= 0 {
		t.Error("no nodes")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, DefaultConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	ws := datasetWindows(t, 1, 0.02)
	bad := DefaultConfig()
	bad.Trees = 0
	if _, err := Train(ws, bad); err == nil {
		t.Error("zero trees accepted")
	}
}

func TestDeterministicTraining(t *testing.T) {
	ws := datasetWindows(t, 2, 0.03)
	a, _ := Train(ws, DefaultConfig())
	b, _ := Train(ws, DefaultConfig())
	for i := range ws {
		if a.Classify(&ws[i]) != b.Classify(&ws[i]) {
			t.Fatalf("same-seed forests disagree on window %d", i)
		}
	}
}

func TestFeatureExtraction(t *testing.T) {
	mag := []float64{0, 1, 0, 1, 0, 1, 0, 1}
	if Extract(FeatMean, mag) != 0.5 {
		t.Errorf("mean = %v", Extract(FeatMean, mag))
	}
	if Extract(FeatEnergy, mag) != 0.5 {
		t.Errorf("energy = %v", Extract(FeatEnergy, mag))
	}
	if got := Extract(FeatNumPeaks, mag); got != 6 {
		t.Errorf("num_peaks = %v, want 6", got)
	}
	if got := Extract(FeatureID(99), mag); got != 0 {
		t.Errorf("unknown feature = %v, want 0", got)
	}
	seen := map[string]bool{}
	for _, f := range AllFeatures() {
		if s := f.String(); seen[s] || s == "" {
			t.Errorf("bad feature name %q", s)
		} else {
			seen[s] = true
		}
	}
}

// Property: the majority vote always returns a valid class, and unanimous
// forests return the unanimous class.
func TestPredictVectorQuick(t *testing.T) {
	ws := datasetWindows(t, 1, 0.02)
	cls, err := Train(ws, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, d float64) bool {
		x := []float64{a, b, c, d}
		for i := range x {
			if x[i] != x[i] { // NaN guard
				x[i] = 0
			}
		}
		cl := cls.PredictVector(x)
		return cl >= 0 && cl < dalia.NumActivities
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPredictVectorVotes pins the vote: the majority class wins, a tie
// goes to the lowest class, and a leaf outside the activity range never
// wins.
func TestPredictVectorVotes(t *testing.T) {
	forest := func(classes ...int) *Classifier {
		c := &Classifier{}
		for _, cl := range classes {
			c.trees = append(c.trees, &treeNode{Class: cl})
		}
		return c
	}
	for _, tc := range []struct {
		classes []int
		want    int
	}{
		{[]int{3, 1, 3}, 3},
		{[]int{3, 1, 3, 1}, 1},
		{[]int{8, 7, 8, 7, 5}, 7},
		{[]int{dalia.NumActivities + 2, dalia.NumActivities + 2, 4}, 4},
	} {
		if got := forest(tc.classes...).PredictVector(nil); got != tc.want {
			t.Errorf("votes %v: class %d, want %d", tc.classes, got, tc.want)
		}
	}
}

func TestGiniHelpers(t *testing.T) {
	y := []int{0, 0, 1, 1}
	idx := []int{0, 1, 2, 3}
	if g := giniOf(y, idx, 2); g != 0.5 {
		t.Errorf("gini of balanced binary = %v, want 0.5", g)
	}
	if g := giniOf(y, idx[:2], 2); g != 0 {
		t.Errorf("gini of pure set = %v, want 0", g)
	}
	if c := majorityClass([]int{2, 2, 1}, []int{0, 1, 2}, 3); c != 2 {
		t.Errorf("majority = %d, want 2", c)
	}
	if !pure([]int{5, 5}, []int{0, 1}) || pure([]int{1, 2}, []int{0, 1}) {
		t.Error("pure() broken")
	}
}

// TestClassifyMatchesFeatureVector pins the scratch-based Classify to the
// allocating training-side path, PredictVector(FeatureVector(w, feats)),
// for the paper's features and the whole library (whose MAD and median
// features allocate internally), on dataset windows and on one longer
// than the stack scratch.
func TestClassifyMatchesFeatureVector(t *testing.T) {
	ws := datasetWindows(t, 2, 0.03)
	long := ws[0]
	for _, ax := range []*[]float64{&long.AccelX, &long.AccelY, &long.AccelZ} {
		*ax = append(append([]float64(nil), *ax...), *ax...)
	}
	probe := append(append([]dalia.Window(nil), ws...), long)
	for _, feats := range [][]FeatureID{nil, AllFeatures()} {
		cfg := DefaultConfig()
		cfg.Features = feats
		cls, err := Train(ws, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range probe {
			w := &probe[i]
			if got, want := cls.Classify(w), dalia.Activity(cls.PredictVector(FeatureVector(w, cls.Features()))); got != want {
				t.Fatalf("features %v window %d: Classify %v, reference %v", cls.Features(), i, got, want)
			}
		}
	}
}

// TestDifficultyIDAllocs: the detector runs on every dispatched window of
// every serving cycle and simulated tick, so it must not allocate.
func TestDifficultyIDAllocs(t *testing.T) {
	ws := datasetWindows(t, 2, 0.03)
	cls, err := Train(ws, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := &ws[len(ws)/2]
	if n := testing.AllocsPerRun(100, func() { cls.DifficultyID(w) }); n != 0 {
		t.Fatalf("DifficultyID allocates %v per window, want 0", n)
	}
}

// TestSharedClassifierConcurrent drives one Classifier from several
// goroutines, as sessions on different serving workers share the engine's
// detector; every verdict must equal the serial call (run under -race in
// CI).
func TestSharedClassifierConcurrent(t *testing.T) {
	ws := datasetWindows(t, 2, 0.03)
	cls, err := Train(ws, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(ws))
	for i := range ws {
		want[i] = cls.DifficultyID(&ws[i])
	}
	const workers = 4
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			for r := 0; r < 3; r++ {
				for i := g; i < len(ws); i++ {
					if got := cls.DifficultyID(&ws[i]); got != want[i] {
						errs <- fmt.Errorf("goroutine %d window %d: %d, serial %d", g, i, got, want[i])
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkDifficultyID times the detector on one dataset window.
func BenchmarkDifficultyID(b *testing.B) {
	c := dalia.DefaultConfig()
	c.Subjects = 1
	c.DurationScale = 0.03
	rec, err := dalia.GenerateSubject(c, 0)
	if err != nil {
		b.Fatal(err)
	}
	ws := dalia.Windows(rec, c.WindowSamples, c.StrideSamples)
	cls, err := Train(ws, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		cls.DifficultyID(&ws[i%len(ws)])
		i++
	}
}
