package tcn

import (
	"math"
	"runtime"
	"sync"
)

// Adam is the Adam optimizer over a fixed parameter set.
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	params []*Param
	m, v   [][]float32
	t      int
	L2     float64 // decoupled weight decay (AdamW style)

	offs  []int // cumulative element offset of each parameter
	total int   // total scalar parameters
}

// NewAdam returns an optimizer for the given parameters with standard
// hyper-parameters.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params, L2: 1e-5}
	for _, p := range params {
		a.m = append(a.m, make([]float32, len(p.W)))
		a.v = append(a.v, make([]float32, len(p.W)))
		a.offs = append(a.offs, a.total)
		a.total += len(p.W)
	}
	return a
}

// update applies the Adam recurrence to element i of p and clears its
// gradient. It is StepFused's inner step.
func (a *Adam) update(p *Param, m, v []float32, i int, g, bc1, bc2 float64) {
	mi := a.Beta1*float64(m[i]) + (1-a.Beta1)*g
	vi := a.Beta2*float64(v[i]) + (1-a.Beta2)*g*g
	m[i], v[i] = float32(mi), float32(vi)
	mHat := mi / bc1
	vHat := vi / bc2
	upd := a.LR * (mHat/(math.Sqrt(vHat)+a.Eps) + a.L2*float64(p.W[i]))
	p.W[i] -= float32(upd)
	p.G[i] = 0
}

// fusedParallelMin is the parameter count below which StepFused stays on
// one goroutine: for the small networks the fan-out/join overhead of a
// parallel pass exceeds the update work itself.
const fusedParallelMin = 1 << 14

// StepFused reduces the worker clones' gradient shards into the main
// parameters and applies the Adam update in a single pass, parallelized
// over contiguous element ranges. Each element is owned by exactly one
// goroutine, which sums the worker gradients in worker order (scaled by
// inv, the 1/batch-size normalizer), immediately applies the update, and
// zeroes the shard gradients — so the result is bitwise identical to a
// serial reduce of every shard into the main gradients followed by one
// update pass, for any shard count, while touching every gradient element
// exactly once.
func (a *Adam) StepFused(workerParams [][]*Param, inv float32) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	shards := runtime.GOMAXPROCS(0)
	if a.total < fusedParallelMin || shards < 2 {
		a.stepFusedRange(0, a.total, workerParams, inv, bc1, bc2)
		return
	}
	if shards > 16 {
		shards = 16
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo := s * a.total / shards
		hi := (s + 1) * a.total / shards
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			a.stepFusedRange(lo, hi, workerParams, inv, bc1, bc2)
		}(lo, hi)
	}
	wg.Wait()
}

// stepFusedRange processes the global element range [lo, hi) across the
// parameter list.
func (a *Adam) stepFusedRange(lo, hi int, workerParams [][]*Param, inv float32, bc1, bc2 float64) {
	for pi, p := range a.params {
		pLo := a.offs[pi]
		pHi := pLo + len(p.W)
		if pHi <= lo || pLo >= hi {
			continue
		}
		i0, i1 := 0, len(p.W)
		if lo > pLo {
			i0 = lo - pLo
		}
		if hi < pHi {
			i1 = hi - pLo
		}
		m, v := a.m[pi], a.v[pi]
		for i := i0; i < i1; i++ {
			g := p.G[i]
			for _, wp := range workerParams {
				w := wp[pi]
				g += w.G[i] * inv
				w.G[i] = 0
			}
			a.update(p, m, v, i, float64(g), bc1, bc2)
		}
	}
}
