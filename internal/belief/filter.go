package belief

import (
	"fmt"
	"math"

	"repro/internal/dalia"
	"repro/internal/dsp"
	"repro/internal/gemm"
)

// Filter is the online sum-product forward pass over a Table. All
// streaming methods (Predict, Observe, ObserveGaussian, Coast and the
// posterior accessors) are allocation-free after NewFilter and bitwise
// deterministic: the same observation sequence always yields the same
// posterior bits.
type Filter struct {
	t    *Table
	post []float64 // posterior after the last Observe/Coast
	pred []float64 // one-step predictive (post · P)
	like []float64 // scratch likelihood for ObserveGaussian
	cum  []float64 // scratch cumulative mass for Interval

	// Per-column contiguous non-zero row span of P: column j draws from
	// rows [colLo[j], colHi[j]). For learned (banded) tables this is the
	// transition band; contracting only the span is bitwise identical to
	// the dense product because every skipped term is an exact
	// post[i]*0.0 = +0.0 addition into a non-negative accumulator.
	colLo, colHi []int
	// blockLo/blockHi is the union of the spans of columns 8b..8b+7,
	// the rows predictBanded contracts for block b.
	blockLo, blockHi []int
	dense            bool // lower onto gemm.F64 instead of the span loop

	predicted bool // pred already holds the current predictive
}

// denseCutoff: above this fill fraction the span loop stops paying for
// itself and the gemm panel kernel wins.
const denseCutoff = 0.5

// minMass is the smallest distribution mass the filter will renormalize:
// 1/sum overflows to +Inf once sum drops below ~5.6e-309, poisoning the
// posterior with Inf/NaN. A product this small (an observation dozens of
// sigma outside the predictive support) carries no usable information,
// so it degrades like an all-zero product instead.
const minMass = 1e-300

// NewFilter validates the table and builds a filter whose posterior
// starts uniform.
func NewFilter(t *Table) (*Filter, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	k := t.Grid.Bins
	f := &Filter{
		t:     t,
		post:  make([]float64, k),
		pred:  make([]float64, k),
		like:  make([]float64, k),
		cum:   make([]float64, k),
		colLo: make([]int, k),
		colHi: make([]int, k),
	}
	f.Reset()
	nonzero := 0
	for j := 0; j < k; j++ {
		lo, hi := k, 0
		for i := 0; i < k; i++ {
			if t.P[i*k+j] != 0 {
				if i < lo {
					lo = i
				}
				hi = i + 1
				nonzero++
			}
		}
		if lo > hi { // all-zero column: empty span
			lo, hi = 0, 0
		}
		f.colLo[j], f.colHi[j] = lo, hi
	}
	f.dense = float64(nonzero) > denseCutoff*float64(k*k)
	f.blockLo, f.blockHi = make([]int, k/8), make([]int, k/8)
	for b := range f.blockLo {
		lo, hi := k, 0
		for j := 8 * b; j < 8*b+8; j++ {
			if f.colLo[j] < f.colHi[j] {
				lo, hi = min(lo, f.colLo[j]), max(hi, f.colHi[j])
			}
		}
		f.blockLo[b], f.blockHi[b] = lo, hi
	}
	return f, nil
}

// Grid returns the filter's HR grid.
func (f *Filter) Grid() Grid { return f.t.Grid }

// Reset restores the uniform posterior, as if no window had been observed.
func (f *Filter) Reset() {
	u := 1 / float64(len(f.post))
	for i := range f.post {
		f.post[i] = u
	}
	f.predicted = false
}

// Predict rolls the posterior one step through the transition prior,
// populating the predictive distribution. Idempotent between
// observations: calling it twice before the next Observe is a no-op.
func (f *Filter) Predict() {
	if f.predicted {
		return
	}
	k := f.t.Grid.Bins
	if f.dense {
		for j := range f.pred {
			f.pred[j] = 0
		}
		gemm.F64(f.pred, f.post, f.t.P, 1, k, k)
	} else {
		f.predictBanded()
	}
	f.predicted = true
}

// predictBanded contracts the posterior against the banded table eight
// adjacent columns at a time, over the union of their row spans
// (blockLo/blockHi, fixed at NewFilter); the last k mod 8 columns run
// the scalar span loop. Each
// lane keeps its own ascending-i chain, so the eight independent chains
// fill the floating-point pipeline where one column's chain would stall
// on add latency. A row outside a lane's own span multiplies an
// exact-zero cell: post[i]*0 = +0 (post is finite and non-negative), and
// adding +0 to a chain that starts at +0 leaves its bits unchanged, so
// every column is bitwise the scalar span sum.
func (f *Filter) predictBanded() {
	k := f.t.Grid.Bins
	p, post := f.t.P, f.post
	for b, lo := range f.blockLo {
		j, hi := 8*b, f.blockHi[b]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for i := lo; i < hi; i++ {
			v := post[i]
			row := p[i*k+j : i*k+j+8 : i*k+j+8]
			s0 += v * row[0]
			s1 += v * row[1]
			s2 += v * row[2]
			s3 += v * row[3]
			s4 += v * row[4]
			s5 += v * row[5]
			s6 += v * row[6]
			s7 += v * row[7]
		}
		out := f.pred[j : j+8 : j+8]
		out[0], out[1], out[2], out[3] = s0, s1, s2, s3
		out[4], out[5], out[6], out[7] = s4, s5, s6, s7
	}
	for j := 8 * len(f.blockLo); j < k; j++ {
		s := 0.0
		for i := f.colLo[j]; i < f.colHi[j]; i++ {
			s += post[i] * p[i*k+j]
		}
		f.pred[j] = s
	}
}

// Observe fuses a likelihood vector with the predictive distribution:
// post ∝ pred ⊙ like. Hostile input — wrong length, NaN/±Inf entries,
// negative entries, or an all-zero product — degrades to the predictive
// (i.e. the prior roll-forward) instead of corrupting the posterior; the
// filter never panics and the posterior always sums to 1.
func (f *Filter) Observe(like []float64) {
	f.Predict()
	k := len(f.post)
	if len(like) != k {
		f.degrade()
		return
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		v := f.pred[i] * like[i]
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			f.degrade()
			return
		}
		f.post[i] = v
		sum += v
	}
	if sum < minMass || math.IsNaN(sum) || math.IsInf(sum, 0) {
		f.degrade()
		return
	}
	inv := 1 / sum
	for i := range f.post {
		f.post[i] *= inv
	}
	f.predicted = false
}

// degrade adopts the normalized predictive as the posterior, falling all
// the way back to uniform if even the predictive mass is unusable.
func (f *Filter) degrade() {
	sum := 0.0
	for _, v := range f.pred {
		sum += v
	}
	if sum < minMass || math.IsNaN(sum) || math.IsInf(sum, 0) {
		f.Reset()
		return
	}
	inv := 1 / sum
	for i := range f.post {
		f.post[i] = f.pred[i] * inv
	}
	f.predicted = false
}

// ObserveGaussian discretizes a point estimate into a Gaussian
// likelihood over bin centers and fuses it. A non-finite hr or a
// non-positive/non-finite sigma yields an uninformative (all-ones)
// likelihood, so the update degenerates to Coast rather than poisoning
// the posterior.
func (f *Filter) ObserveGaussian(hr, sigma float64) {
	bad := math.IsNaN(hr) || math.IsInf(hr, 0) ||
		math.IsNaN(sigma) || math.IsInf(sigma, 0) || sigma <= 0
	g := f.t.Grid
	for i := range f.like {
		if bad {
			f.like[i] = 1
		} else {
			z := (g.Center(i) - hr) / sigma
			f.like[i] = math.Exp(-0.5 * z * z)
		}
	}
	f.Observe(f.like)
}

// Coast advances the belief through one unobserved window: the posterior
// becomes the normalized predictive.
func (f *Filter) Coast() {
	f.Predict()
	f.degrade()
}

// Mean returns the posterior mean HR in BPM.
func (f *Filter) Mean() float64 {
	g := f.t.Grid
	s := 0.0
	for i, p := range f.post {
		s += p * g.Center(i)
	}
	return s
}

// MAP returns the center of the highest-posterior bin (lowest index on
// ties, for determinism).
func (f *Filter) MAP() float64 {
	best, bi := f.post[0], 0
	for i, p := range f.post {
		if p > best {
			best, bi = p, i
		}
	}
	return f.t.Grid.Center(bi)
}

// Entropy returns the posterior Shannon entropy in nats (0·ln 0 = 0).
func (f *Filter) Entropy() float64 {
	h := 0.0
	for _, p := range f.post {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// Interval returns the central credible interval of the given mass over
// the posterior, as [lo, hi] bin-edge bounds in BPM.
func (f *Filter) Interval(mass float64) (lo, hi float64) {
	return f.t.Grid.interval(f.post, f.cum, mass)
}

// Width is the credible-interval width in BPM — the confidence signal
// consumed by core.UncertaintyGate.
func (f *Filter) Width(mass float64) float64 {
	lo, hi := f.Interval(mass)
	return hi - lo
}

// Credible returns Width(mass) and whether that central credible
// interval contains hr, by bin index (so edge values count as covered),
// from one pass over the posterior.
func (f *Filter) Credible(mass, hr float64) (width float64, covers bool) {
	g := f.t.Grid
	loIdx, hiIdx := g.intervalIdx(f.post, f.cum, mass)
	lo, hi := g.edges(loIdx, hiIdx)
	b := g.Bin(hr)
	return hi - lo, b >= loIdx && b <= hiIdx
}

// PredictiveWidth is the credible-interval width of the one-step
// predictive distribution — the uncertainty available *before* this
// window's estimate exists, which is what an offload decision can act on.
func (f *Filter) PredictiveWidth(mass float64) float64 {
	f.Predict()
	lo, hi := f.t.Grid.interval(f.pred, f.cum, mass)
	return hi - lo
}

// Posterior copies the posterior into dst (grown if needed) and returns
// it.
func (f *Filter) Posterior(dst []float64) []float64 {
	if cap(dst) < len(f.post) {
		dst = make([]float64, len(f.post))
	}
	dst = dst[:len(f.post)]
	copy(dst, f.post)
	return dst
}

// Snapshot captures the filter's complete mutable state: the posterior
// (copied into dst, grown if needed) and whether the predictive has been
// rolled forward since the last observation. pred is a pure function of
// post (Predict), and like/cum are per-call scratch, so these two values
// are all a checkpoint needs — Restore on a fresh filter over the same
// table continues the stream bitwise.
func (f *Filter) Snapshot(dst []float64) ([]float64, bool) {
	return f.Posterior(dst), f.predicted
}

// Restore installs a posterior previously captured with Snapshot. The
// bits are adopted exactly — no renormalization, so a restored filter's
// future output is bitwise identical to the uninterrupted filter's — but
// hostile input is rejected first: wrong length, non-finite or negative
// entries, or total mass off the simplex by more than restoreMassTol.
// When predicted is set the predictive is regenerated from the restored
// posterior (Predict is deterministic, so this too is exact).
func (f *Filter) Restore(post []float64, predicted bool) error {
	if len(post) != len(f.post) {
		return fmt.Errorf("belief: restore length %d, filter has %d bins", len(post), len(f.post))
	}
	sum := 0.0
	for i, v := range post {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("belief: restore bin %d holds %v", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > restoreMassTol {
		return fmt.Errorf("belief: restore mass %v is off the simplex", sum)
	}
	copy(f.post, post)
	f.predicted = false
	if predicted {
		f.Predict()
	}
	return nil
}

// restoreMassTol bounds how far a restored posterior's total mass may sit
// from 1. Legitimate posteriors are normalized by construction, so the
// tolerance only needs to absorb the summation order's rounding; anything
// further off is a corrupt or forged snapshot.
const restoreMassTol = 1e-9

// interval computes the central credible interval over dist (not
// necessarily normalized), reusing cum as scratch.
func (g Grid) interval(dist, cum []float64, mass float64) (lo, hi float64) {
	return g.edges(g.intervalIdx(dist, cum, mass))
}

// edges returns the HR bounds of bins loIdx..hiIdx.
func (g Grid) edges(loIdx, hiIdx int) (lo, hi float64) {
	return g.MinHR + float64(loIdx)*g.BinW, g.MinHR + float64(hiIdx+1)*g.BinW
}

func (g Grid) intervalIdx(dist, cum []float64, mass float64) (loIdx, hiIdx int) {
	if math.IsNaN(mass) || mass <= 0 || mass >= 1 {
		return 0, g.Bins - 1
	}
	total := 0.0
	for i, p := range dist {
		total += p
		cum[i] = total
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return 0, g.Bins - 1
	}
	alpha := (1 - mass) / 2
	loTarget, hiTarget := alpha*total, (1-alpha)*total
	loIdx, hiIdx = 0, g.Bins-1
	for i, c := range cum {
		if c > loTarget {
			loIdx = i
			break
		}
	}
	for i, c := range cum {
		if c >= hiTarget {
			hiIdx = i
			break
		}
	}
	if hiIdx < loIdx {
		hiIdx = loIdx
	}
	return loIdx, hiIdx
}

// MotionRMS computes the RMS of the detrended accelerometer magnitude —
// bitwise identical to math.Sqrt(w.AccelEnergy()) but allocation-free
// given a reusable scratch buffer, which it grows and returns.
func MotionRMS(w *dalia.Window, scratch []float64) (float64, []float64) {
	n := len(w.AccelX)
	if cap(scratch) < n {
		scratch = make([]float64, n)
	}
	scratch = scratch[:n]
	dsp.MagnitudeInto(scratch, w.AccelX, w.AccelY, w.AccelZ)
	dsp.Detrend(scratch)
	return math.Sqrt(dsp.Energy(scratch)), scratch
}
