package gemm

import (
	"math/rand"
	"testing"
)

// Equality fuzzing of the asm dispatch against the portable scalar
// kernels: the float32 panels must be bitwise identical (same ascending-k
// accumulation chain, per-operation rounding, no FMA), the int8 panels
// exact-integer equal. Shapes are derived from the fuzz inputs so ragged
// M/N/K combinations — K=0, single rows, sub-vector-width column tails,
// and every panel-width boundary — are explored beyond the fixed table in
// gemm_test.go. On non-amd64 or purego builds the asm entry points are
// the generic kernels themselves, so the harness degrades to a no-op
// rather than a false pass on untested code.

// fuzzShape folds raw fuzz integers into kernel shapes that cross every
// dispatch boundary: m over the 4-row NT blocking, n over the 16/8/4/
// scalar panel widths, k over the dual-MAC pairing (odd and even) and the
// empty reduction.
func fuzzShape(m, k, n uint8) (int, int, int) {
	return 1 + int(m)%21, int(k) % 40, 1 + int(n)%70
}

func fuzzF32Data(seed int64, n int) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n+1) // +1 so k=0 still has a valid base pointer
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out[: n : n+1]
}

// fuzzS8Data draws from the full int8 range: S8 is a general kernel, not
// only one for clamped [−127, 127] activations.
func fuzzS8Data(seed int64, n int) []int8 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int8, n+1)
	for i := range out {
		out[i] = int8(rng.Intn(256) - 128)
	}
	return out[: n : n+1]
}

// fuzzSeeds covers the interesting boundaries even when the fuzzer only
// replays the corpus (the `go test` mode CI runs).
func fuzzSeeds(f *testing.F) {
	f.Helper()
	for _, s := range [][3]uint8{
		{0, 0, 0},    // 1×0×1: empty reduction
		{0, 1, 0},    // 1×1×1: scalar tail only
		{3, 2, 15},   // 4-wide + scalar tails
		{1, 7, 3},    // odd k, sub-vector n
		{4, 16, 19},  // 16-wide panel + 3-column tail
		{7, 39, 63},  // every panel width + odd k
		{20, 24, 31}, // NT row blocks + 16/8/4/scalar columns
		{11, 1, 16},  // k=1 through the dual-MAC tail
	} {
		f.Add(s[0], s[1], s[2], int64(1))
	}
}

func FuzzF32AsmMatchesGeneric(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, mr, kr, nr uint8, seed int64) {
		m, k, n := fuzzShape(mr, kr, nr)
		a := fuzzF32Data(seed, m*k)
		b := fuzzF32Data(seed+1, k*n)
		got := fuzzF32Data(seed+2, m*n)
		want := append([]float32(nil), got...)
		if k > 0 {
			f32Asm(got, a, b, m, k, n)
		} else {
			F32(got, a, b, m, k, n) // exported path: degenerate no-op
		}
		f32Generic(want, a, b, m, k, n, 0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%dx%d: elem %d = %v, want %v (must be bitwise equal)", m, k, n, i, got[i], want[i])
			}
		}
	})
}

func FuzzF32NTAsmMatchesGeneric(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, mr, kr, nr uint8, seed int64) {
		m, k, n := fuzzShape(mr, kr, nr)
		if k == 0 {
			k = 1
		}
		a := fuzzF32Data(seed, m*k)
		b := fuzzF32Data(seed+1, n*k)
		got := fuzzF32Data(seed+2, m*n)
		want := append([]float32(nil), got...)
		f32NTAsm(got, a, b, m, k, n)
		f32NTGeneric(want, a, b, m, k, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%dx%d: elem %d = %v, want %v (must be bitwise equal)", m, k, n, i, got[i], want[i])
			}
		}
	})
}

func FuzzS8AsmMatchesGeneric(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, mr, kr, nr uint8, seed int64) {
		m, k, n := fuzzShape(mr, kr, nr)
		a := fuzzS8Data(seed, m*k)
		b := fuzzS8Data(seed+1, k*n)
		rng := rand.New(rand.NewSource(seed + 2))
		got := make([]int32, m*n)
		for i := range got {
			got[i] = int32(rng.Intn(2000) - 1000)
		}
		want := append([]int32(nil), got...)
		if k > 0 {
			s8Asm(got, a, b, m, k, n)
		} else {
			S8(got, a, b, m, k, n)
		}
		s8Generic(want, a, b, m, k, n, 0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%dx%d: elem %d = %d, want %d", m, k, n, i, got[i], want[i])
			}
		}
	})
}

func FuzzS8NTAsmMatchesGeneric(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, mr, kr, nr uint8, seed int64) {
		m, k, n := fuzzShape(mr, kr, nr)
		if k == 0 {
			k = 1
		}
		a := fuzzS8Data(seed, m*k)
		b := fuzzS8Data(seed+1, n*k)
		rng := rand.New(rand.NewSource(seed + 2))
		got := make([]int32, m*n)
		for i := range got {
			got[i] = int32(rng.Intn(2000) - 1000)
		}
		want := append([]int32(nil), got...)
		s8NTAsm(got, a, b, m, k, n)
		s8NTGeneric(want, a, b, m, k, n, 0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%dx%d: elem %d = %d, want %d", m, k, n, i, got[i], want[i])
			}
		}
	})
}

// TestS8AsmMinInt8 pins PMADDWL's largest pair sum: with A and B all
// −128 every dual-MAC adds (−128)² + (−128)² = 32 768, one past int16.
// Even and odd k cover the zero-partner pair, m ∈ {1, 2, 3} the blocked
// row pair and the odd trailing row, n = 37 two panels and a scalar tail.
func TestS8AsmMinInt8(t *testing.T) {
	const n = 37
	for _, k := range []int{16, 17} {
		for m := 1; m <= 3; m++ {
			a := make([]int8, m*k)
			b := make([]int8, k*n)
			for i := range a {
				a[i] = -128
			}
			for i := range b {
				b[i] = -128
			}
			want := int32(k) * 128 * 128
			got := make([]int32, m*n)
			s8Asm(got, a, b, m, k, n)
			gotNT := make([]int32, m*n)
			s8NTAsm(gotNT, a, b, m, k, n) // B all −128 reads the same as n×k
			for i := range got {
				if got[i] != want || gotNT[i] != want {
					t.Fatalf("m=%d k=%d: elem %d = %d (S8), %d (S8NT), want %d", m, k, i, got[i], gotNT[i], want)
				}
			}
		}
	}
}

// TestTransposeInto pins the packing primitive the NT asm path rests on.
func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range []struct{ rows, cols int }{{1, 1}, {3, 5}, {32, 32}, {33, 70}, {128, 7}} {
		src := fuzzF32Data(rng.Int63(), s.rows*s.cols)
		dst := make([]float32, s.rows*s.cols)
		transposeInto(dst, src, s.rows, s.cols)
		for r := 0; r < s.rows; r++ {
			for c := 0; c < s.cols; c++ {
				if dst[c*s.rows+r] != src[r*s.cols+c] {
					t.Fatalf("%dx%d: (%d,%d) = %v, want %v", s.rows, s.cols, r, c, dst[c*s.rows+r], src[r*s.cols+c])
				}
			}
		}
	}
}

// TestNTPackZeroAllocSteadyState guards the pooled Bᵀ panels: once a
// worker has warmed the pool, the packed NT path must not allocate.
func TestNTPackZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const m, k, n = 16, 96, 48 // comfortably over the asm-pack thresholds
	a := make([]float32, m*k)
	b := make([]float32, n*k)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	c := make([]float32, m*n)
	F32NT(c, a, b, m, k, n)
	if allocs := testing.AllocsPerRun(20, func() { F32NT(c, a, b, m, k, n) }); allocs != 0 {
		t.Errorf("F32NT allocates %v per run in steady state", allocs)
	}
	as := make([]int8, m*k)
	bs := make([]int8, n*k)
	for i := range as {
		as[i] = int8(rng.Intn(255) - 127)
	}
	for i := range bs {
		bs[i] = int8(rng.Intn(255) - 127)
	}
	cs := make([]int32, m*n)
	S8NT(cs, as, bs, m, k, n)
	if allocs := testing.AllocsPerRun(20, func() { S8NT(cs, as, bs, m, k, n) }); allocs != 0 {
		t.Errorf("S8NT allocates %v per run in steady state", allocs)
	}
}
