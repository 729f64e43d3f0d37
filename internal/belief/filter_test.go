package belief

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gemm"
)

// sumTol is the normalization tolerance: the posterior is produced by an
// explicit 1/sum rescale, so the residual is a few ulps of accumulated
// rounding across Bins additions, far below 1e-12.
const sumTol = 1e-12

func postSum(f *Filter) float64 {
	s := 0.0
	for _, p := range f.post {
		s += p
	}
	return s
}

// TestPosteriorAlwaysNormalized streams a long mixed sequence of clean,
// coasted and hostile updates; after every single step the posterior must
// sum to 1 within ulp-scale tolerance and contain only finite
// non-negative mass.
func TestPosteriorAlwaysNormalized(t *testing.T) {
	f, err := NewFilter(learnedTable(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	check := func(step int, what string) {
		t.Helper()
		if s := postSum(f); math.Abs(s-1) > sumTol {
			t.Fatalf("step %d (%s): posterior sums to %v, off by %v", step, what, s, s-1)
		}
		for i, p := range f.post {
			if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
				t.Fatalf("step %d (%s): post[%d] = %v", step, what, i, p)
			}
		}
	}
	for step := 0; step < 500; step++ {
		switch step % 5 {
		case 0, 1, 2:
			f.ObserveGaussian(60+120*rng.Float64(), 1+10*rng.Float64())
			check(step, "gaussian")
		case 3:
			f.Coast()
			check(step, "coast")
		default:
			like := make([]float64, f.t.Grid.Bins)
			for i := range like {
				like[i] = rng.Float64()
			}
			f.Observe(like)
			check(step, "raw likelihood")
		}
	}
}

// TestHostileInputsDegradeNeverPanic: every malformed observation must
// leave the filter in the coasted state (normalized predictive), bitwise
// identical to an explicit Coast from the same posterior.
func TestHostileInputsDegradeNeverPanic(t *testing.T) {
	tab := learnedTable(t)
	k := tab.Grid.Bins
	hostileLikes := map[string][]float64{
		"all-zero":     make([]float64, k),
		"wrong-length": make([]float64, k-1),
		"nil":          nil,
		"nan":          func() []float64 { l := ones(k); l[k/2] = math.NaN(); return l }(),
		"+inf":         func() []float64 { l := ones(k); l[0] = math.Inf(1); return l }(),
		"-inf":         func() []float64 { l := ones(k); l[k-1] = math.Inf(-1); return l }(),
		"negative":     func() []float64 { l := ones(k); l[3] = -0.25; return l }(),
	}
	for name, like := range hostileLikes {
		f, err := NewFilter(tab)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewFilter(tab)
		if err != nil {
			t.Fatal(err)
		}
		// Put both filters in the same informative state first.
		for i := 0; i < 5; i++ {
			f.ObserveGaussian(100+float64(i), 4)
			ref.ObserveGaussian(100+float64(i), 4)
		}
		f.Observe(like)
		ref.Coast()
		for i := range f.post {
			if f.post[i] != ref.post[i] {
				t.Errorf("%s: post[%d] = %v, want coast value %v", name, i, f.post[i], ref.post[i])
				break
			}
		}
		if s := postSum(f); math.Abs(s-1) > sumTol {
			t.Errorf("%s: degraded posterior sums to %v", name, s)
		}
	}

	// Hostile point estimates: non-finite hr or unusable sigma must
	// behave exactly like Coast too (all-ones likelihood).
	for name, in := range map[string][2]float64{
		"nan-hr":     {math.NaN(), 4},
		"inf-hr":     {math.Inf(1), 4},
		"zero-sig":   {120, 0},
		"neg-sig":    {120, -3},
		"nan-sig":    {120, math.NaN()},
		"inf-sig":    {120, math.Inf(1)},
		"both-hosed": {math.Inf(-1), math.NaN()},
	} {
		f, _ := NewFilter(tab)
		ref, _ := NewFilter(tab)
		f.ObserveGaussian(90, 4)
		ref.ObserveGaussian(90, 4)
		f.ObserveGaussian(in[0], in[1])
		ref.Coast()
		for i := range f.post {
			if f.post[i] != ref.post[i] {
				t.Errorf("%s: post[%d] = %v, want coast value %v", name, i, f.post[i], ref.post[i])
				break
			}
		}
	}
}

func ones(n int) []float64 {
	l := make([]float64, n)
	for i := range l {
		l[i] = 1
	}
	return l
}

// TestStreamingZeroAlloc guards the simulator-tick hot path: one
// predictive roll, one Gaussian fusion and every posterior accessor must
// allocate nothing after NewFilter.
func TestStreamingZeroAlloc(t *testing.T) {
	f, err := NewFilter(learnedTable(t))
	if err != nil {
		t.Fatal(err)
	}
	hr := 80.0
	allocs := testing.AllocsPerRun(200, func() {
		_ = f.PredictiveWidth(0.9)
		f.ObserveGaussian(hr, 4)
		_ = f.Mean()
		_ = f.MAP()
		_ = f.Entropy()
		_ = f.Width(0.9)
		_, _ = f.Credible(0.9, hr)
		f.Coast()
		hr += 0.5
	})
	if allocs != 0 {
		t.Errorf("streaming update allocates %v times per window, want 0", allocs)
	}
}

// TestBandedPredictMatchesDenseGemm is the bitwise equivalence the banded
// span contraction promises: skipping exact-zero transition cells must
// produce the same bits as the dense gemm.F64 matvec, because every
// skipped term is a post[i]*0.0 = +0.0 addition. The eight-column blocks
// widen each lane's span to the block's union, so the synthetic tables
// give adjacent columns ragged spans, leave some columns all-zero and
// use bin counts that are not a multiple of eight.
func TestBandedPredictMatchesDenseGemm(t *testing.T) {
	tables := map[string]*Table{"learned": learnedTable(t)}
	for _, k := range []int{8, 9, 37, 90, 101} {
		tables[fmt.Sprintf("ragged-%d", k)] = raggedTable(t, k, int64(k))
	}
	for name, tab := range tables {
		f, err := NewFilter(tab)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.dense {
			t.Fatalf("%s: table is not banded (fill above cutoff); test needs the span path", name)
		}
		k := tab.Grid.Bins
		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 50; step++ {
			f.ObserveGaussian(tab.Grid.MinHR+tab.Grid.BinW*float64(k)*rng.Float64(), 2+6*rng.Float64())
			post := append([]float64(nil), f.post...)
			f.Predict()
			dense := make([]float64, k)
			gemm.F64(dense, post, tab.P, 1, k, k)
			for j := 0; j < k; j++ {
				if math.Float64bits(f.pred[j]) != math.Float64bits(dense[j]) {
					t.Fatalf("%s step %d: banded pred[%d] = %b, dense = %b", name, step, j, f.pred[j], dense[j])
				}
			}
		}
	}
}

// raggedTable builds a k-bin transition table whose rows each spread
// over a short random run of columns, skipping every fifth column, so
// adjacent columns have unrelated spans and some columns are all zero.
func raggedTable(t *testing.T, k int, seed int64) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := make([]float64, k*k)
	for i := 0; i < k; i++ {
		row := p[i*k : (i+1)*k]
		lo := rng.Intn(k)
		hi := min(k, lo+1+rng.Intn(4))
		sum := 0.0
		for j := lo; j < hi; j++ {
			if j%5 == 4 {
				continue
			}
			row[j] = 0.1 + rng.Float64()
			sum += row[j]
		}
		if sum == 0 {
			row[lo-lo%5] = 1
			continue
		}
		for j := range row {
			row[j] /= sum
		}
	}
	tab := &Table{Grid: Grid{Bins: k, MinHR: 30, BinW: 2}, P: p}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestPredictIdempotent: Predict between observations is a no-op, so
// reading PredictiveWidth any number of times cannot drift the belief.
func TestPredictIdempotent(t *testing.T) {
	f, err := NewFilter(learnedTable(t))
	if err != nil {
		t.Fatal(err)
	}
	f.ObserveGaussian(100, 4)
	w1 := f.PredictiveWidth(0.9)
	pred := append([]float64(nil), f.pred...)
	for i := 0; i < 4; i++ {
		if w := f.PredictiveWidth(0.9); w != w1 {
			t.Fatalf("PredictiveWidth drifted: %v then %v", w1, w)
		}
	}
	f.Predict()
	for i := range pred {
		if f.pred[i] != pred[i] {
			t.Fatalf("repeated Predict changed pred[%d]", i)
		}
	}
}

// TestPosteriorTracksObservations: repeated consistent observations must
// pull the mean to the observed value and the MAP into its bin.
func TestPosteriorTracksObservations(t *testing.T) {
	f, err := NewFilter(learnedTable(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		f.ObserveGaussian(142, 3)
	}
	if m := f.Mean(); math.Abs(m-142) > 4 {
		t.Errorf("mean %v far from observed 142", m)
	}
	if m := f.MAP(); math.Abs(m-142) > 2*f.Grid().BinW {
		t.Errorf("MAP %v far from observed 142", m)
	}
	lo, hi := f.Interval(0.9)
	if lo > 142 || hi < 142 {
		t.Errorf("90%% interval [%v, %v] excludes the observed value", lo, hi)
	}
	if w := f.Width(0.9); w <= 0 || w > 40 {
		t.Errorf("interval width %v unreasonable after 30 consistent observations", w)
	}
	if w, ok := f.Credible(0.9, 142); !ok || w != f.Width(0.9) {
		t.Errorf("Credible(0.9, 142) = %v, %v after observing 142 thirty times; want %v, true", w, ok, f.Width(0.9))
	}
}

// TestIntervalDegenerateMass: out-of-range masses fall back to the full
// grid instead of inventing a bound.
func TestIntervalDegenerateMass(t *testing.T) {
	f, err := NewFilter(learnedTable(t))
	if err != nil {
		t.Fatal(err)
	}
	g := f.Grid()
	for _, mass := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		lo, hi := f.Interval(mass)
		if lo != g.MinHR || hi != g.MaxHR() {
			t.Errorf("mass %v: interval [%v, %v], want full grid [%v, %v]",
				mass, lo, hi, g.MinHR, g.MaxHR())
		}
	}
}

// TestEntropyDropsWithEvidence: the uniform prior is maximum entropy;
// evidence must only sharpen it.
func TestEntropyDropsWithEvidence(t *testing.T) {
	f, err := NewFilter(learnedTable(t))
	if err != nil {
		t.Fatal(err)
	}
	h0 := f.Entropy()
	want := math.Log(float64(f.Grid().Bins))
	if math.Abs(h0-want) > 1e-9 {
		t.Errorf("uniform entropy %v, want ln(k) = %v", h0, want)
	}
	f.ObserveGaussian(120, 4)
	if h := f.Entropy(); h >= h0 {
		t.Errorf("entropy rose after evidence: %v -> %v", h0, h)
	}
}

// TestUnderflowObservationDegrades: an observation far enough outside the
// predictive support that the product mass lands in the denormal range
// (sum > 0 but 1/sum overflows to +Inf) must degrade like an all-zero
// product — before the minMass guard this poisoned the posterior with
// Inf/NaN. Regression test for the full-suite AT stream, whose tracking
// losses produce exactly this geometry.
func TestUnderflowObservationDegrades(t *testing.T) {
	tab := learnedTable(t)
	f, err := NewFilter(tab)
	if err != nil {
		t.Fatal(err)
	}
	// Sharpen the posterior far from the upcoming hostile observation.
	for i := 0; i < 8; i++ {
		f.ObserveGaussian(78, 1)
	}
	ref, err := NewFilter(tab)
	if err != nil {
		t.Fatal(err)
	}
	copy(ref.post, f.post)
	ref.predicted = false

	// A uniformly denormal likelihood: the product mass is positive
	// (1e-310 · Σpred) but below the renormalization threshold, the
	// regime where 1/sum overflows. ObserveGaussian reaches the same
	// state when every bin center sits ~38σ from the estimate.
	like := make([]float64, tab.Grid.Bins)
	for i := range like {
		like[i] = 1e-310
	}
	f.Observe(like)
	if s := postSum(f); math.Abs(s-1) > sumTol {
		t.Fatalf("posterior sums to %v after underflow observation", s)
	}
	for i, p := range f.post {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			t.Fatalf("post[%d] = %v after underflow observation", i, p)
		}
	}
	if m := f.Mean(); math.IsNaN(m) || math.IsInf(m, 0) {
		t.Fatalf("Mean() = %v after underflow observation", m)
	}
	// The degrade must be bitwise identical to an explicit Coast.
	ref.Coast()
	for i := range f.post {
		if f.post[i] != ref.post[i] {
			t.Fatalf("bin %d: underflow degrade %v != coast %v", i, f.post[i], ref.post[i])
		}
	}
}

// BenchmarkPredict times one predictive roll-forward over the learned
// 90-bin banded prior: the per-window belief cost of the serving gate.
func BenchmarkPredict(b *testing.B) {
	f, err := NewFilter(learnedTable(b))
	if err != nil {
		b.Fatal(err)
	}
	f.ObserveGaussian(100, 4)
	b.ReportAllocs()
	for b.Loop() {
		f.predicted = false
		f.Predict()
	}
}
