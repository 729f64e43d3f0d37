package gemm

import (
	"math/rand"
	"testing"
)

// refF32 is the reference accumulation the kernels must reproduce bitwise:
// per output element, products added one at a time in ascending-k order on
// top of the existing C value.
func refF32(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := c[i*n+j]
			for p := 0; p < k; p++ {
				acc += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = acc
		}
	}
}

func refF32NT(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := c[i*n+j]
			for p := 0; p < k; p++ {
				acc += a[i*k+p] * b[j*k+p]
			}
			c[i*n+j] = acc
		}
	}
}

func refS8(c []int32, a, b []int8, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := c[i*n+j]
			for p := 0; p < k; p++ {
				acc += int32(a[i*k+p]) * int32(b[p*n+j])
			}
			c[i*n+j] = acc
		}
	}
}

func refS8NT(c []int32, a, b []int8, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := c[i*n+j]
			for p := 0; p < k; p++ {
				acc += int32(a[i*k+p]) * int32(b[j*k+p])
			}
			c[i*n+j] = acc
		}
	}
}

func randF32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	// A few exact zeros, mirroring sparse trained weights.
	if n > 3 {
		out[0], out[n/2] = 0, 0
	}
	return out
}

func randS8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(255) - 127)
	}
	return out
}

// shapes sweeps every unroll path: 8-wide, 4-wide and scalar column tails,
// 4-row blocks with row tails, and degenerate single-row/column cases.
var shapes = []struct{ m, k, n int }{
	{1, 1, 1}, {1, 3, 8}, {2, 5, 7}, {3, 7, 12}, {4, 2, 4},
	{5, 16, 9}, {6, 24, 32}, {7, 13, 33}, {8, 48, 31}, {48, 144, 128},
}

func TestF32MatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range shapes {
		a := randF32(rng, s.m*s.k)
		b := randF32(rng, s.k*s.n)
		got := randF32(rng, s.m*s.n) // nonzero seed: kernels accumulate in place
		want := append([]float32(nil), got...)
		F32(got, a, b, s.m, s.k, s.n)
		refF32(want, a, b, s.m, s.k, s.n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%dx%d: elem %d = %v, want %v (must be bitwise equal)",
					s.m, s.k, s.n, i, got[i], want[i])
			}
		}
	}
}

func TestF32NTMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range shapes {
		a := randF32(rng, s.m*s.k)
		b := randF32(rng, s.n*s.k)
		got := randF32(rng, s.m*s.n)
		want := append([]float32(nil), got...)
		F32NT(got, a, b, s.m, s.k, s.n)
		refF32NT(want, a, b, s.m, s.k, s.n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%dx%d: elem %d = %v, want %v (must be bitwise equal)",
					s.m, s.k, s.n, i, got[i], want[i])
			}
		}
	}
}

func TestS8MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range shapes {
		a := randS8(rng, s.m*s.k)
		b := randS8(rng, s.k*s.n)
		got := make([]int32, s.m*s.n)
		for i := range got {
			got[i] = int32(rng.Intn(2000) - 1000)
		}
		want := append([]int32(nil), got...)
		S8(got, a, b, s.m, s.k, s.n)
		refS8(want, a, b, s.m, s.k, s.n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%dx%d: elem %d = %d, want %d", s.m, s.k, s.n, i, got[i], want[i])
			}
		}
	}
}

func TestS8NTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, s := range shapes {
		a := randS8(rng, s.m*s.k)
		b := randS8(rng, s.n*s.k)
		got := make([]int32, s.m*s.n)
		for i := range got {
			got[i] = int32(rng.Intn(2000) - 1000)
		}
		want := append([]int32(nil), got...)
		S8NT(got, a, b, s.m, s.k, s.n)
		refS8NT(want, a, b, s.m, s.k, s.n)
		for i := range want {
			t.Helper()
			if got[i] != want[i] {
				t.Fatalf("%dx%dx%d: elem %d = %d, want %d", s.m, s.k, s.n, i, got[i], want[i])
			}
		}
	}
}

func TestKernelsDegenerateShapesNoPanic(t *testing.T) {
	F32(nil, nil, nil, 0, 0, 0)
	F32NT(nil, nil, nil, 0, 4, 0)
	S8(nil, nil, nil, 3, 0, 2)
	S8NT(nil, nil, nil, 0, 0, 5)
}

func TestKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m, k, n = 16, 48, 64
	a := randF32(rng, m*k)
	b := randF32(rng, k*n)
	c := make([]float32, m*n)
	if allocs := testing.AllocsPerRun(10, func() { F32(c, a, b, m, k, n) }); allocs != 0 {
		t.Errorf("F32 allocates %v per run", allocs)
	}
	as := randS8(rng, m*k)
	bs := randS8(rng, k*n)
	cs := make([]int32, m*n)
	if allocs := testing.AllocsPerRun(10, func() { S8(cs, as, bs, m, k, n) }); allocs != 0 {
		t.Errorf("S8 allocates %v per run", allocs)
	}
	qs := make([]int8, m*n)
	if allocs := testing.AllocsPerRun(10, func() { RescaleRow(qs, cs, 5, 0.01, 0) }); allocs != 0 {
		t.Errorf("RescaleRow allocates %v per run", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { QuantizeRow(qs, c, 0.02) }); allocs != 0 {
		t.Errorf("QuantizeRow allocates %v per run", allocs)
	}
}

// Representative TimePPG-Big mid-block GEMM shape: 48 output channels,
// J = 48·3 taps, 128 output positions.
func benchShape() (m, k, n int) { return 48, 144, 128 }

// Representative TimePPG-Small final-block shapes: 8 output channels,
// J = 8·3 taps, and either one sample's 32 output positions (the
// underfed per-sample panel) or a 32-window cross-sample panel.
func benchShapeSmall() (m, k, n int)     { return 8, 24, 32 }
func benchShapeSmallWide() (m, k, n int) { return 8, 24, 32 * 32 }

func BenchmarkGemmF32(b *testing.B) {
	m, k, n := benchShape()
	benchGemmF32At(b, m, k, n)
}

func BenchmarkGemmS8(b *testing.B) {
	m, k, n := benchShape()
	benchGemmS8At(b, m, k, n)
}

func benchGemmF32At(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(6))
	a := randF32(rng, m*k)
	bb := randF32(rng, k*n)
	c := make([]float32, m*n)
	b.ReportAllocs()
	b.SetBytes(int64(m) * int64(k) * int64(n) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		F32(c, a, bb, m, k, n)
	}
}

func benchGemmS8At(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(7))
	a := randS8(rng, m*k)
	bb := randS8(rng, k*n)
	c := make([]int32, m*n)
	b.ReportAllocs()
	b.SetBytes(int64(m) * int64(k) * int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		S8(c, a, bb, m, k, n)
	}
}

// The Small-topology pair: the per-sample panel the scalar kernels were
// underfed by, and the cross-sample panel the wide im2col lowering feeds
// the vector kernels with.
func BenchmarkGemmF32Small(b *testing.B) {
	m, k, n := benchShapeSmall()
	benchGemmF32At(b, m, k, n)
}

func BenchmarkGemmF32SmallWide(b *testing.B) {
	m, k, n := benchShapeSmallWide()
	benchGemmF32At(b, m, k, n)
}

func BenchmarkGemmS8Small(b *testing.B) {
	m, k, n := benchShapeSmall()
	benchGemmS8At(b, m, k, n)
}

func BenchmarkGemmS8SmallWide(b *testing.B) {
	m, k, n := benchShapeSmallWide()
	benchGemmS8At(b, m, k, n)
}

func BenchmarkGemmF32NT(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m, k, n := benchShape()
	a := randF32(rng, m*k)
	bb := randF32(rng, n*k)
	c := make([]float32, m*n)
	b.ReportAllocs()
	b.SetBytes(int64(m) * int64(k) * int64(n) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		F32NT(c, a, bb, m, k, n)
	}
}

// BenchmarkGemmS8NTHead is the TimePPG-Big head batched over 28 windows:
// 2048-wide flattened activations against 84 weight rows, five packed
// panels and a 4-column scalar tail.
func BenchmarkGemmS8NTHead(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const m, k, n = 28, 2048, 84
	a := randS8(rng, m*k)
	bb := randS8(rng, n*k)
	c := make([]int32, m*n)
	b.ReportAllocs()
	b.SetBytes(int64(m) * int64(k) * int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		S8NT(c, a, bb, m, k, n)
	}
}
