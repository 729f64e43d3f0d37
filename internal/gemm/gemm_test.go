package gemm

import (
	"fmt"
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

// s8Generic is the int8 reference every packed kernel must equal: per
// output element, exact products added to the existing C value with
// Go's wrapping int32 arithmetic.
func s8Generic(c []int32, a, b []int8, m, k, n int) {
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

// transposeS8 returns Bᵀ (n×k) of B (k×n).
func transposeS8(b []int8, k, n int) []int8 {
	bt := make([]int8, n*k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bt[j*k+p] = b[p*n+j]
		}
	}
	return bt
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

// forEachS8Kernel runs fn with s8Level forced to each int8 panel kernel
// the host supports in turn (only the portable one under purego or off
// amd64), restoring the init selection afterwards.
func forEachS8Kernel(fn func(k s8Kernel)) {
	defer func(old s8Kernel) { s8Level = old }(s8Level)
	for _, k := range s8Kernels() {
		s8Level = k
		fn(k)
	}
}

// TestS8KernelSelection logs which int8 panel kernel init selected, which
// ones the host supports and the operand layout each packs, so a CI log
// shows whether the AVX2 and VNNI kernels were exercised on its runner.
func TestS8KernelSelection(t *testing.T) {
	ks := s8Kernels()
	t.Logf("int8 panel kernel: %v (supported: %v)", s8Level, ks)
	for _, k := range ks {
		t.Logf("%v packs %v", k, k.layout())
	}
	if s8Level != ks[len(ks)-1] {
		t.Fatalf("init selected %v, want the most preferred supported kernel %v", s8Level, ks[len(ks)-1])
	}
}

// mulPacked computes C += A·B (A m×k, B k×n, C m×n) through the packed
// API on the selected kernel: A by PackA, and B by PackBT from its
// transpose when stride is 0, otherwise by PackRows from rows at
// shuffled offsets of a larger buffer, read at that stride with junk
// between the elements a stride skips. PackRows fills two copies of the
// panels side by side ([0, np) and [np, 2np)), as the cross-sample im2col
// does. The product runs into a C whose row stride exceeds its panels;
// the columns past n must gain nothing, those past the panels stay
// unwritten, and both copies must agree.
func mulPacked(t *testing.T, rng *rand.Rand, c []int32, a, b []int8, m, k, n, stride int) {
	t.Helper()
	np := (n + PanelCols - 1) / PanelCols
	copies := 1
	var pb Panels
	if stride == 0 {
		PackBT(&pb, transposeS8(b, k, n), n, k)
	} else {
		copies = 2
		span := stride * np * PanelCols
		src := make([]int8, (k+1)*span+3)
		for i := range src {
			src[i] = int8(rng.Intn(256) - 128)
		}
		offs := make([]int, k)
		for p, slot := range rng.Perm(k + 1)[:k] {
			offs[p] = 3 + slot*span
			for j := 0; j < np*PanelCols; j++ {
				v := int8(0) // the rows are zero-padded to whole panels
				if j < n {
					v = b[p*n+j]
				}
				src[offs[p]+j*stride] = v
			}
		}
		pb.Resize(k, copies*np)
		PackRows(&pb, 0, src, offs, stride, np)
		PackRows(&pb, np, src, offs, stride, np)
	}
	var pa PackedA
	PackA(&pa, a, m, k)

	w := np * PanelCols // one copy's columns
	ldc := copies*w + 3
	got := make([]int32, m*ldc)
	for i := 0; i < m; i++ {
		row := got[i*ldc : (i+1)*ldc]
		for j := range row {
			row[j] = int32(rng.Uint32())
		}
		for cp := 0; cp < copies; cp++ {
			copy(row[cp*w:], c[i*n:(i+1)*n])
		}
	}
	seed := append([]int32(nil), got...)
	S8Panels(got, ldc, &pa, &pb)
	for i := 0; i < m; i++ {
		row, was := got[i*ldc:(i+1)*ldc], seed[i*ldc:(i+1)*ldc]
		for cp := 0; cp < copies; cp++ {
			for j := n; j < w; j++ {
				if row[cp*w+j] != was[cp*w+j] {
					t.Fatalf("%v stride %d %dx%dx%d: padded C[%d][%d] = %d, want %d", s8Level, stride, m, k, n, i, cp*w+j, row[cp*w+j], was[cp*w+j])
				}
			}
			for j := 0; j < n; j++ {
				if row[cp*w+j] != row[j] {
					t.Fatalf("%v stride %d %dx%dx%d: panel copy %d C[%d][%d] = %d, copy 0 %d", s8Level, stride, m, k, n, cp, i, j, row[cp*w+j], row[j])
				}
			}
		}
		for j := copies * w; j < ldc; j++ {
			if row[j] != was[j] {
				t.Fatalf("%v stride %d: C[%d][%d] past the panels was written", s8Level, stride, i, j)
			}
		}
		copy(c[i*n:(i+1)*n], row)
	}
}

// checkS8Packed runs mulPacked at each stride in strides and compares
// the result with s8Generic.
func checkS8Packed(t *testing.T, rng *rand.Rand, c0 []int32, a, b []int8, m, k, n int, strides ...int) {
	t.Helper()
	want := append([]int32(nil), c0...)
	s8Generic(want, a, b, m, k, n)
	for _, stride := range strides {
		got := append([]int32(nil), c0...)
		mulPacked(t, rng, got, a, b, m, k, n, stride)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v stride %d %dx%dx%d: elem %d = %d, want %d", s8Level, stride, m, k, n, i, got[i], want[i])
			}
		}
	}
}

// randAcc draws accumulator seeds for the int8 products.
func randAcc(rng *rand.Rand, n int) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = int32(rng.Intn(2000) - 1000)
	}
	return c
}

// TestS8MatchesReference: C += A·B with B packed by PackRows (the int8
// convolution's im2col) at strides 1 and 2 (the asm packers) and 3.
func TestS8MatchesReference(t *testing.T) {
	forEachS8Kernel(func(kern s8Kernel) {
		rng := rand.New(rand.NewSource(3))
		for _, s := range shapes {
			a := randS8(rng, s.m*s.k)
			b := randS8(rng, s.k*s.n)
			checkS8Packed(t, rng, randAcc(rng, s.m*s.n), a, b, s.m, s.k, s.n, 1, 2, 3)
		}
	})
}

// TestS8NTMatchesReference: C += A·B with B packed from its transpose by
// PackBT (the int8 dense layer's weights), zero-padded past n.
func TestS8NTMatchesReference(t *testing.T) {
	forEachS8Kernel(func(kern s8Kernel) {
		rng := rand.New(rand.NewSource(4))
		for _, s := range shapes {
			a := randS8(rng, s.m*s.k)
			b := randS8(rng, s.k*s.n)
			checkS8Packed(t, rng, randAcc(rng, s.m*s.n), a, b, s.m, s.k, s.n, 0)
		}
	})
}

// bigConvShapes are TimePPG-Big's nine int8 convolutions as panel
// products of one window: output channels m, im2col rows k = inC·3, and
// output panels np = outT/16.
var bigConvShapes = []struct{ m, k, np int }{
	{32, 12, 16}, {32, 96, 16}, {32, 96, 8},
	{48, 96, 8}, {48, 144, 8}, {48, 144, 4},
	{64, 144, 4}, {64, 192, 4}, {64, 192, 2},
}

// TestS8PanelsMatchesReference runs the shapes the int8 TCN multiplies —
// TimePPG-Big's nine convolutions through PackRows at strides 1 and 2,
// and its head batched over 28 windows through PackBT — on every kernel.
func TestS8PanelsMatchesReference(t *testing.T) {
	forEachS8Kernel(func(kern s8Kernel) {
		rng := rand.New(rand.NewSource(11))
		for _, s := range bigConvShapes {
			n := s.np * PanelCols
			a, b := randS8(rng, s.m*s.k), randS8(rng, s.k*n)
			checkS8Packed(t, rng, randAcc(rng, s.m*n), a, b, s.m, s.k, n, 1, 2)
		}
		const m, k, n = 28, 2048, 84
		a, b := randS8(rng, m*k), randS8(rng, k*n)
		checkS8Packed(t, rng, randAcc(rng, m*n), a, b, m, k, n, 0)
	})
}

// TestS8PanelsRejectsStaleLayout: an operand packed under one kernel must
// not run on a kernel of the other layout — S8Panels and PackRows panic
// instead of misreading it.
func TestS8PanelsRejectsStaleLayout(t *testing.T) {
	ks := s8Kernels()
	first, last := ks[0], ks[len(ks)-1]
	if first.layout() == last.layout() {
		t.Skipf("every supported kernel (%v) packs %v", ks, first.layout())
	}
	defer func(old s8Kernel) { s8Level = old }(s8Level)
	const m, k, n = 3, 8, 16
	a, bt := make([]int8, m*k), make([]int8, n*k)
	c := make([]int32, m*n)
	offs := make([]int, k)
	for p := range offs {
		offs[p] = p * n
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic on a stale layout", what)
			}
		}()
		fn()
	}
	for _, from := range []s8Kernel{first, last} {
		to := first
		if from == first {
			to = last
		}
		s8Level = from
		var pa PackedA
		var pb, rows Panels
		PackA(&pa, a, m, k)
		PackBT(&pb, bt, n, k)
		rows.Resize(k, 1)
		s8Level = to
		var freshA PackedA
		var freshB Panels
		PackA(&freshA, a, m, k)
		PackBT(&freshB, bt, n, k)
		mustPanic(fmt.Sprintf("S8Panels of A packed by %v on %v", from, to), func() { S8Panels(c, n, &pa, &freshB) })
		mustPanic(fmt.Sprintf("S8Panels of B packed by %v on %v", from, to), func() { S8Panels(c, n, &freshA, &pb) })
		mustPanic(fmt.Sprintf("PackRows into panels sized by %v on %v", from, to), func() { PackRows(&rows, 0, a, offs, 1, 1) })
	}
}

func TestKernelsDegenerateShapesNoPanic(t *testing.T) {
	F32(nil, nil, nil, 0, 0, 0)
	F32NT(nil, nil, nil, 0, 4, 0)
	var pa PackedA
	var pb Panels
	PackA(&pa, nil, 3, 0)
	PackBT(&pb, nil, 2, 0)
	S8Panels(nil, 0, &pa, &pb)
	PackA(&pa, nil, 0, 5)
	PackBT(&pb, nil, 0, 5)
	PackRows(&pb, 0, nil, nil, 1, 4)
	S8Panels(nil, 0, &pa, &pb)
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
	// The pre-packed entry points the int8 convolution and head run, on
	// operands that already hold storage of their size.
	as := randS8(rng, m*k)
	bs := randS8(rng, k*n)
	cs := make([]int32, m*n)
	qs := make([]int8, m*n)
	bias, mult := randAcc(rng, m), make([]float32, m)
	for i := range mult {
		mult[i] = 0.01
	}
	offs := make([]int, k)
	for p := range offs {
		offs[p] = p * n
	}
	forEachS8Kernel(func(kern s8Kernel) {
		var pa PackedA
		var pb Panels
		PackA(&pa, as, m, k)
		PackBT(&pb, bs, n, k)
		for name, f := range map[string]func(){
			"PackA":    func() { PackA(&pa, as, m, k) },
			"PackBT":   func() { PackBT(&pb, bs, n, k) },
			"PackRows": func() { pb.Resize(k, n/PanelCols); PackRows(&pb, 0, bs, offs, 1, n/PanelCols) },
			"S8Panels": func() { S8Panels(cs, n, &pa, &pb) },
			"S8Rescale": func() {
				pb.Resize(k, n/PanelCols)
				PackRows(&pb, 0, bs, offs, 1, n/PanelCols)
				S8Rescale(qs, n, n, &pa, &pb, bias, mult, 0)
			},
		} {
			if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
				t.Errorf("%v %s allocates %v per run", kern, name, allocs)
			}
		}
	})
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

// benchGemmS8At times the int8 convolution's per-call work at one
// shape: A (the weights) packed once, B packed from rows by PackRows —
// the im2col — and multiplied by S8Panels on every call.
func benchGemmS8At(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(7))
	var pa PackedA
	PackA(&pa, randS8(rng, m*k), m, k)
	bb := randS8(rng, k*n)
	offs := make([]int, k)
	for p := range offs {
		offs[p] = p * n
	}
	np := n / PanelCols
	var pb Panels
	pb.Resize(k, np)
	c := make([]int32, m*n)
	b.ReportAllocs()
	b.SetBytes(int64(m) * int64(k) * int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackRows(&pb, 0, bb, offs, 1, np)
		S8Panels(c, n, &pa, &pb)
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
// 2048-wide flattened activations, packed by PackA on every call, against
// 84 weight rows packed once by PackBT into six zero-padded panels.
func BenchmarkGemmS8NTHead(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const m, k, n = 28, 2048, 84
	a := randS8(rng, m*k)
	var pa PackedA
	var pb Panels
	PackBT(&pb, randS8(rng, n*k), n, k)
	ldc := pb.np * PanelCols
	c := make([]int32, m*ldc)
	b.ReportAllocs()
	b.SetBytes(int64(m) * int64(k) * int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackA(&pa, a, m, k)
		S8Panels(c, ldc, &pa, &pb)
	}
}

// BenchmarkS8Panels times the int8 products at the shapes the int8 TCN
// runs, on every int8 kernel the host supports, so the pair and quad
// layouts compare side by side. At TimePPG-Big's nine convolution shapes
// (one window each) it times the panel product alone,
// BenchmarkS8Panels/<kernel>/<m>x<k>x<panels>, and the fused
// convolution step S8Rescale, .../rescale/<m>x<k>x<panels>; at its head
// batched over 28 and 32 windows the product, .../<m>x2048x6.
func BenchmarkS8Panels(b *testing.B) {
	forEachS8Kernel(func(kern s8Kernel) {
		for _, s := range bigConvShapes {
			rng := rand.New(rand.NewSource(12))
			n := s.np * PanelCols
			var pa PackedA
			var pb Panels
			PackA(&pa, randS8(rng, s.m*s.k), s.m, s.k)
			PackBT(&pb, randS8(rng, n*s.k), n, s.k)
			c := make([]int32, s.m*n)
			b.Run(fmt.Sprintf("%v/%dx%dx%d", kern, s.m, s.k, s.np), func(b *testing.B) {
				b.SetBytes(int64(s.m) * int64(s.k) * int64(n))
				for i := 0; i < b.N; i++ {
					S8Panels(c, n, &pa, &pb)
				}
			})
			q := make([]int8, s.m*n)
			bias := randAcc(rng, s.m)
			mult := make([]float32, s.m)
			for i := range mult {
				mult[i] = float32(1e-4 * (1 + rng.Float64()))
			}
			b.Run(fmt.Sprintf("%v/rescale/%dx%dx%d", kern, s.m, s.k, s.np), func(b *testing.B) {
				b.SetBytes(int64(s.m) * int64(s.k) * int64(n))
				for i := 0; i < b.N; i++ {
					S8Rescale(q, n, n, &pa, &pb, bias, mult, 0)
				}
			})
		}
		for _, m := range []int{28, 32} {
			const k, np = 2048, 6
			rng := rand.New(rand.NewSource(13))
			n := np * PanelCols
			var pa PackedA
			var pb Panels
			PackA(&pa, randS8(rng, m*k), m, k)
			PackBT(&pb, randS8(rng, n*k), n, k)
			c := make([]int32, m*n)
			b.Run(fmt.Sprintf("%v/%dx%dx%d", kern, m, k, np), func(b *testing.B) {
				b.SetBytes(int64(m) * int64(k) * int64(n))
				for i := 0; i < b.N; i++ {
					S8Panels(c, n, &pa, &pb)
				}
			})
		}
	})
}

// TestReleaseScratchDropsParkedPanels: ReleaseScratch empties the panel
// free list (what tcn.Fit relies on to leave no training-sized panels
// behind), and packing works as before afterwards.
func TestReleaseScratchDropsParkedPanels(t *testing.T) {
	f32PackPool.put(make([]float32, 1<<14))
	ReleaseScratch()
	if n := len(f32PackPool.free); n != 0 {
		t.Fatalf("%d panels still parked after ReleaseScratch", n)
	}
	const m, k, n = 5, 19, 23
	a, b := make([]float32, m*k), make([]float32, n*k)
	for i := range a {
		a[i] = float32(i%7) - 3
	}
	for i := range b {
		b[i] = float32(i%5) - 2
	}
	got := make([]float32, m*n)
	F32NT(got, a, b, m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			if got[i*n+j] != s {
				t.Fatalf("C[%d][%d] = %v after release, want %v", i, j, got[i*n+j], s)
			}
		}
	}
}
