package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Plan holds the precomputed tables for forward real-input radix-2 FFTs
// of one size n. The real transform runs as one n/2-point complex FFT, so
// the plan keeps exactly what that reads: the n/2-point bit-reversal
// permutation and DIT stage twiddles, plus the unpacking twiddles.
// Building a plan costs O(n); every transform through it is
// allocation-free.
//
// A Plan's tables are read-only after construction, so RealFFTInto may be
// called concurrently from multiple goroutines. PowerSpectrumInto reuses
// an internal scratch buffer and is not safe for concurrent use on the
// same Plan.
type Plan struct {
	n   int
	rev []int32      // bit-reversal permutation of n/2 points
	tw  []complex128 // tw[k] = exp(-2πik/n), k < n/4 (real-unpack table)
	// stages[s] holds the twiddles of the n/2-point FFT's DIT stage size
	// 4<<s contiguously (one table per stage keeps the hot loop free of
	// stride arithmetic).
	stages  [][]complex128
	scratch []complex128
}

// NewPlan builds the tables for n-point transforms. n must be a power of
// two (and at least 1); NewPlan panics otherwise.
func NewPlan(n int) *Plan {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	p := &Plan{n: n}
	m := n / 2
	p.rev = make([]int32, m)
	if m > 1 {
		shift := 64 - uint(bits.TrailingZeros(uint(m)))
		for i := range p.rev {
			p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
		}
	}
	p.tw = make([]complex128, n/4)
	for k := range p.tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.tw[k] = complex(c, s)
	}
	for size := 4; size <= m; size <<= 1 {
		tbl := make([]complex128, size/2)
		for k := range tbl {
			s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(size))
			tbl[k] = complex(c, s)
		}
		p.stages = append(p.stages, tbl)
	}
	return p
}

// Size returns the transform length the plan was built for.
func (p *Plan) Size() int { return p.n }

// butterflies runs the forward DIT stages of the n/2-point FFT over x,
// which must already be in bit-reversed order.
func (p *Plan) butterflies(x []complex128) {
	n := len(p.rev)
	switch {
	case n == 2:
		a, b := x[0], x[1]
		x[0], x[1] = a+b, a-b
		return
	case n < 2:
		return
	}
	// Sizes 2 and 4 fused into one pass of 4-point butterflies; their
	// twiddles are all 1 or -i, so the pass is multiplication-free.
	for i := 0; i < n; i += 4 {
		q := x[i : i+4 : i+4]
		a, b, c, d := q[0], q[1], q[2], q[3]
		e0, e1 := a+b, a-b
		o0, o1 := c+d, c-d
		t := complex(imag(o1), -real(o1))
		q[0], q[2] = e0+o0, e0-o0
		q[1], q[3] = e1+t, e1-t
	}
	// Radix-2² main loop: consecutive stage pairs (size, 2·size) fuse into
	// one pass of quartet butterflies — three twiddle products per four
	// points per two stages instead of four, and half the sweeps over x.
	si, size := 1, 8
	for size*2 <= n {
		tw1 := p.stages[si]   // stage `size`, len size/2
		tw2 := p.stages[si+1] // stage 2·size, len size
		h := size / 2
		block := size * 2
		// k = 0: all twiddles unit (or the fixed -i rotation).
		for i0 := 0; i0 < n; i0 += block {
			i1 := i0 + h
			i2 := i0 + size
			i3 := i2 + h
			a, b, c, d := x[i0], x[i1], x[i2], x[i3]
			a1, b1 := a+b, a-b
			c1, d1 := c+d, c-d
			v := complex(imag(d1), -real(d1))
			x[i0], x[i2] = a1+c1, a1-c1
			x[i1], x[i3] = b1+v, b1-v
		}
		for k := 1; k < h; k++ {
			w1, w2 := tw1[k], tw2[k]
			w1r, w1i := real(w1), imag(w1)
			w2r, w2i := real(w2), imag(w2)
			for i0 := k; i0 < n; i0 += block {
				i1 := i0 + h
				i2 := i0 + size
				i3 := i2 + h
				br, bi := real(x[i1]), imag(x[i1])
				dr, di := real(x[i3]), imag(x[i3])
				tbr, tbi := br*w1r-bi*w1i, br*w1i+bi*w1r
				tdr, tdi := dr*w1r-di*w1i, dr*w1i+di*w1r
				ar, ai := real(x[i0]), imag(x[i0])
				cr, ci := real(x[i2]), imag(x[i2])
				a1r, a1i := ar+tbr, ai+tbi
				b1r, b1i := ar-tbr, ai-tbi
				c1r, c1i := cr+tdr, ci+tdi
				d1r, d1i := cr-tdr, ci-tdi
				tcr, tci := c1r*w2r-c1i*w2i, c1r*w2i+c1i*w2r
				ur, ui := d1r*w2r-d1i*w2i, d1r*w2i+d1i*w2r
				// The second-stage twiddle of the odd pair is W₄·w2,
				// i.e. -i·(w2·d1): a rotation, not another product.
				vr, vi := ui, -ur
				x[i0] = complex(a1r+tcr, a1i+tci)
				x[i2] = complex(a1r-tcr, a1i-tci)
				x[i1] = complex(b1r+vr, b1i+vi)
				x[i3] = complex(b1r-vr, b1i-vi)
			}
		}
		si += 2
		size *= 4
	}
	// One unpaired radix-2 stage remains when log₂(n) is even: size == n,
	// a single contiguous sweep of (k, k+n/2) butterflies.
	if size <= n {
		tbl := p.stages[si]
		half := len(tbl)
		lo := x[:half]
		hi := x[half:]
		for k, w := range tbl {
			wr, wi := real(w), imag(w)
			br, bi := real(hi[k]), imag(hi[k])
			tr := br*wr - bi*wi
			ti := br*wi + bi*wr
			ar, ai := real(lo[k]), imag(lo[k])
			lo[k] = complex(ar+tr, ai+ti)
			hi[k] = complex(ar-tr, ai-ti)
		}
	}
}

// RealFFTInto computes the one-sided complex spectrum (DC through Nyquist,
// n/2+1 bins) of the real signal x, writing into dst, which must have
// capacity for n/2+1 elements. It returns dst resliced to the output
// length. The real transform runs as one half-size complex FFT on the
// even/odd-packed samples followed by an O(n) unpacking pass, roughly
// halving the work of a full complex transform. No allocations.
func (p *Plan) RealFFTInto(dst []complex128, x []float64) []complex128 {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: plan size %d, input length %d", p.n, len(x)))
	}
	if p.n == 1 {
		dst = dst[:1]
		dst[0] = complex(x[0], 0)
		return dst
	}
	m := p.n / 2
	dst = dst[:m+1]
	z := dst[:m]
	// Pack even/odd sample pairs directly in bit-reversed order, fusing
	// the permutation pass into the load.
	for j, src := range p.rev {
		z[j] = complex(x[2*src], x[2*src+1])
	}
	p.butterflies(z)

	// Unpack: with z[j] = even[j] + i·odd[j] and Z its m-point spectrum,
	// Fe[k] = (Z[k]+conj(Z[m-k]))/2, Fo[k] = -i(Z[k]-conj(Z[m-k]))/2 and
	// X[k] = Fe[k] + W^k·Fo[k] with W = exp(-2πi/n). The k and m-k bins
	// share inputs, so they are produced pairwise in place.
	z0 := z[0]
	for k := 1; k < m-k; k++ {
		ar, ai := real(z[k]), imag(z[k])
		br, bi := real(z[m-k]), -imag(z[m-k])
		fer, fei := 0.5*(ar+br), 0.5*(ai+bi)
		for_, foi := 0.5*(ai-bi), -0.5*(ar-br)
		wr, wi := real(p.tw[k]), imag(p.tw[k])
		tr := for_*wr - foi*wi
		ti := for_*wi + foi*wr
		dst[k] = complex(fer+tr, fei+ti)
		dst[m-k] = complex(fer-tr, ti-fei)
	}
	if m >= 2 {
		mid := z[m/2]
		dst[m/2] = complex(real(mid), -imag(mid))
	}
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[m] = complex(real(z0)-imag(z0), 0)
	return dst
}

// PowerSpectrumInto computes the one-sided power spectrum |X[k]|² of the
// real signal x (n/2+1 bins) into dst, which must have capacity for n/2+1
// elements, and returns dst resliced. After the first call on a plan it
// performs no allocations. Not safe for concurrent use on one Plan (it
// reuses an internal complex scratch buffer).
func (p *Plan) PowerSpectrumInto(dst []float64, x []float64) []float64 {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: plan size %d, input length %d", p.n, len(x)))
	}
	if p.n == 1 {
		dst = dst[:1]
		dst[0] = x[0] * x[0]
		return dst
	}
	m := p.n / 2
	if cap(p.scratch) < m {
		p.scratch = make([]complex128, m)
	}
	z := p.scratch[:m]
	for j, src := range p.rev {
		z[j] = complex(x[2*src], x[2*src+1])
	}
	p.butterflies(z)
	// Same unpacking as RealFFTInto, but squared on the fly — conjugation
	// drops out of |·|², so the magnitudes come straight from fe ± t.
	dst = dst[:m+1]
	z0 := z[0]
	for k := 1; k < m-k; k++ {
		ar, ai := real(z[k]), imag(z[k])
		br, bi := real(z[m-k]), -imag(z[m-k])
		fer, fei := 0.5*(ar+br), 0.5*(ai+bi)
		for_, foi := 0.5*(ai-bi), -0.5*(ar-br)
		wr, wi := real(p.tw[k]), imag(p.tw[k])
		tr := for_*wr - foi*wi
		ti := for_*wi + foi*wr
		xr, xi := fer+tr, fei+ti
		dst[k] = xr*xr + xi*xi
		yr, yi := fer-tr, fei-ti
		dst[m-k] = yr*yr + yi*yi
	}
	if m >= 2 {
		mr, mi := real(z[m/2]), imag(z[m/2])
		dst[m/2] = mr*mr + mi*mi
	}
	s0 := real(z0) + imag(z0)
	sm := real(z0) - imag(z0)
	dst[0] = s0 * s0
	dst[m] = sm * sm
	return dst
}

// planCache shares read-only plans between the package-level convenience
// functions; windows in this repository use a handful of sizes (256 above
// all), so the cache stays tiny.
var planCache sync.Map // int → *Plan

// planFor returns the shared plan for size n, building it on first use.
func planFor(n int) *Plan {
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan)
	}
	v, _ := planCache.LoadOrStore(n, NewPlan(n))
	return v.(*Plan)
}

// hannCache shares read-only Hann windows for the same reason.
var hannCache sync.Map // int → []float64

// hannFor returns a shared Hann window of length n; callers must not
// mutate it.
func hannFor(n int) []float64 {
	if v, ok := hannCache.Load(n); ok {
		return v.([]float64)
	}
	v, _ := hannCache.LoadOrStore(n, Hann(n))
	return v.([]float64)
}
