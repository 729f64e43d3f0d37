package gemm

import (
	"math"
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
// dispatch boundary: m over the 2-, 4- and 8-row blockings, n over the
// 16/8/4/scalar panel widths, k over the pair and quad steps (every
// residue mod 4) and the empty reduction.
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

// fuzzS8Data draws from the full int8 range — the packed product is a
// general kernel, not only one for clamped [−127, 127] activations — with
// one draw in eight at an end of it (−128 or 127), where the quad
// layout's +128 offset and the pair sums are largest.
func fuzzS8Data(seed int64, n int) []int8 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int8, n)
	for i := range out {
		switch rng.Intn(16) {
		case 0:
			out[i] = -128
		case 1:
			out[i] = 127
		default:
			out[i] = int8(rng.Intn(256) - 128)
		}
	}
	return out
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

// fuzzS8Acc seeds the int8 accumulators within 2¹⁶ of the int32 wrap on
// either side, so a saturating instruction or a lost +128 correction
// shows.
func fuzzS8Acc(seed int64, n int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	c := make([]int32, n)
	for i := range c {
		c[i] = math.MaxInt32 - int32(rng.Intn(1<<16))
		if rng.Intn(2) == 0 {
			c[i] = math.MinInt32 + int32(rng.Intn(1<<16))
		}
	}
	return c
}

// FuzzS8AsmMatchesGeneric multiplies C += A·B through the int8 entry
// points under every kernel the host supports — A packed by PackA, B by
// PackRows (the convolution's im2col) at strides 1 to 3 — and checks
// each product against s8Generic on operands spanning the full int8
// range.
func FuzzS8AsmMatchesGeneric(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, mr, kr, nr uint8, seed int64) {
		m, k, n := fuzzShape(mr, kr, nr)
		a := fuzzS8Data(seed, m*k)
		b := fuzzS8Data(seed+1, k*n)
		c0 := fuzzS8Acc(seed+2, m*n)
		rng := rand.New(rand.NewSource(seed + 3))
		forEachS8Kernel(func(s8Kernel) {
			checkS8Packed(t, rng, c0, a, b, m, k, n, 1, 2, 3)
		})
	})
}

// FuzzS8NTAsmMatchesGeneric is the Bᵀ form: B is packed by PackBT from
// its n×k transpose (the dense layer's weights), zero-padded to whole
// panels, and the product checked against s8Generic under every kernel.
func FuzzS8NTAsmMatchesGeneric(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, mr, kr, nr uint8, seed int64) {
		m, k, n := fuzzShape(mr, kr, nr)
		a := fuzzS8Data(seed, m*k)
		b := fuzzS8Data(seed+1, k*n)
		c0 := fuzzS8Acc(seed+2, m*n)
		rng := rand.New(rand.NewSource(seed + 3))
		forEachS8Kernel(func(s8Kernel) {
			checkS8Packed(t, rng, c0, a, b, m, k, n, 0)
		})
	})
}

// TestS8AsmMinInt8 pins the extreme products: with A and B all −128 every
// pair adds (−128)² + (−128)² = 32 768, one past int16 (PMADDWL,
// VPMADDWD hold it exactly in the int32 lane), and every quad reads B as
// u = 0 against A's −128 with the whole product in the correction.
// Accumulators seeded just below MaxInt32 pin the int32 wraparound of
// the scalar loop, which the saturating VPDPBUSDS would clamp instead. k
// of every residue mod 4 covers the zero partners and padded quads, m ∈
// {1, …, 9} the two-, four- and eight-row blocks and their trailing
// rows, n = 37 three panels, the last one padded.
func TestS8AsmMinInt8(t *testing.T) {
	const n = 37
	forEachS8Kernel(func(kern s8Kernel) {
		rng := rand.New(rand.NewSource(13))
		for _, k := range []int{16, 17, 18, 19} {
			for m := 1; m <= 9; m++ {
				a := make([]int8, m*k)
				b := make([]int8, k*n)
				for i := range a {
					a[i] = -128
				}
				for i := range b {
					b[i] = -128
				}
				for _, c0 := range []int32{0, math.MaxInt32 - 1000} {
					want := c0 + int32(k)*128*128 // wraps for the high seed
					for _, stride := range []int{0, 1} {
						got := make([]int32, m*n)
						for i := range got {
							got[i] = c0
						}
						mulPacked(t, rng, got, a, b, m, k, n, stride)
						for i := range got {
							if got[i] != want {
								t.Fatalf("%v stride %d m=%d k=%d c0=%d: elem %d = %d, want %d", kern, stride, m, k, c0, i, got[i], want)
							}
						}
					}
				}
			}
		}
	})
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
// worker has warmed the pool, F32NT's packed path must not allocate.
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
}

// rescaleRows draws A, the bias and the multiplier of each of m rows of
// FuzzS8RescaleMatchesReference in one of four modes, so that most
// outputs land inside [−127, 127] with a fraction to round:
//   - a bias within 2¹⁶ of the int32 wrap, which seeding with the
//     correction wraps, scaled back into range by a multiplier near 5e-8;
//   - a small bias and a multiplier of about 127 over the row's largest
//     possible product;
//   - a sparse row of ±1 (small products) and a multiplier of ±0.5 or
//     0.25, which puts outputs on the ±0.5 ties and past ±127;
//   - a multiplier of ±1e9, far past ±127.
//
// One draw in eight then gives a single row an infinite or NaN
// multiplier, which sends the whole call to the reference path, so that
// most draws at every m run the fused kernel.
func rescaleRows(rng *rand.Rand, m, k int) (a []int8, bias []int32, mult []float32) {
	a = make([]int8, m*k)
	bias = make([]int32, m)
	mult = make([]float32, m)
	for i := range m {
		row := a[i*k : (i+1)*k]
		for p := range row {
			row[p] = int8(rng.Intn(256) - 128)
		}
		switch rng.Intn(4) {
		case 0:
			bias[i] = math.MaxInt32 - int32(rng.Intn(1<<16))
			if rng.Intn(2) == 0 {
				bias[i] = math.MinInt32 + int32(rng.Intn(1<<16))
			}
			mult[i] = float32(4e-8 + 2e-8*rng.Float64())
		case 1:
			bias[i] = int32(rng.Intn(2001) - 1000)
			mult[i] = float32(127 * rng.Float64() / float64(128*128*(k+1)))
		case 2:
			for p := range row {
				row[p] = int8(rng.Intn(3)-1) * int8(rng.Intn(8)/7)
			}
			bias[i] = int32(rng.Intn(601) - 300)
			mult[i] = []float32{0.5, -0.5, 0.25}[rng.Intn(3)]
		default:
			mult[i] = []float32{1e9, -1e9}[rng.Intn(2)]
			bias[i] = int32(rng.Intn(2001) - 1000)
		}
	}
	if rng.Intn(8) == 0 {
		mult[rng.Intn(m)] = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}[rng.Intn(3)]
	}
	return a, bias, mult
}

// checkS8Rescale runs S8Rescale under every kernel the host supports
// against its reference composition, S8Panels on zeroed accumulators
// followed by RescaleRow per row, byte for byte: groups samples of an
// m×k by k×cols product, A and the per-row bias and multiplier drawn by
// rescaleRows, B packed by PackRows as groups of ⌈cols/16⌉ panels. The
// output rows sit at stride ld ≥ cols; the guard bytes between and after
// them must stay as they were.
func checkS8Rescale(t *testing.T, rng *rand.Rand, m, k, cols, groups, ld int, lo float64) {
	t.Helper()
	nps := (cols + PanelCols - 1) / PanelCols
	np := groups * nps
	// B: each sample's k×cols block, zero-padded to whole panels, in
	// rows of one buffer that PackRows reads at stride 1.
	span := np * PanelCols
	src := make([]int8, k*span+1)
	for i := range src[:k*span] {
		if i%span%(nps*PanelCols) < cols {
			src[i] = int8(rng.Intn(256) - 128)
		}
	}
	offs := make([]int, k)
	for p := range offs {
		offs[p] = p * span
	}
	a, bias, mult := rescaleRows(rng, m, k)
	guard := make([]int8, (groups*m-1)*ld+cols+16)
	for i := range guard {
		guard[i] = int8(rng.Intn(256) - 128)
	}
	forEachS8Kernel(func(kern s8Kernel) {
		var pa PackedA
		var pb Panels
		PackA(&pa, a, m, k)
		pb.Resize(k, np)
		PackRows(&pb, 0, src, offs, 1, np)

		acc := make([]int32, m*span)
		S8Panels(acc, span, &pa, &pb)
		want := append([]int8(nil), guard...)
		for g := range groups {
			for i := range m {
				o := (g*m + i) * ld
				RescaleRow(want[o:o+cols], acc[i*span+g*nps*PanelCols:][:cols], bias[i], mult[i], lo)
			}
		}
		got := append([]int8(nil), guard...)
		S8Rescale(got, ld, cols, &pa, &pb, bias, mult, lo)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v m=%d k=%d cols=%d ld=%d groups=%d lo=%v: byte %d (row %d col %d) = %d, want %d",
					kern, m, k, cols, ld, groups, lo, i, i/ld, i%ld, got[i], want[i])
			}
		}
	})
}

// FuzzS8RescaleMatchesReference drives checkS8Rescale at both floors
// with m crossing every row block and its residues mod 8, k every
// residue mod 4 (and 0), cols leaving a partial last panel and odd or
// even panel counts, one to three samples, and row strides past cols.
func FuzzS8RescaleMatchesReference(f *testing.F) {
	for _, s := range [][4]uint8{
		{0, 0, 0, 0},     // 1 row, k = 0, one column
		{7, 12, 15, 1},   // 8 rows, 16 columns, two samples
		{15, 96, 31, 0},  // 16 rows, two panels
		{11, 17, 47, 2},  // 12 rows: an 8-row and a 4-row block, three panels
		{14, 39, 68, 5},  // 15 rows: 8 + 4 + 3 singles, five panels
		{3, 24, 36, 4},   // 4 rows, a partial odd last panel, three samples
		{20, 23, 16, 3},  // 21 rows, one panel per sample
		{31, 144, 64, 0}, // a TimePPG-Big block-three shape
	} {
		f.Add(s[0], s[1], s[2], s[3], int64(1))
		f.Add(s[0], s[1], s[2], s[3], int64(2))
	}
	f.Fuzz(func(t *testing.T, mr, kr, cr, gr uint8, seed int64) {
		lo := -127.0
		if seed&1 == 0 {
			lo = 0
		}
		cols := 1 + int(cr)%70
		checkS8Rescale(t, rand.New(rand.NewSource(seed)), 1+int(mr)%32, int(kr)%160, cols, 1+int(gr)%3, cols+int(gr)/3%4, lo)
	})
}

// TestS8RescaleLongRows runs rows longer than the reference path's
// stack accumulators hold at once (2048 int32: 128 panels of one row,
// 25 of five): 131 panels per sample, the last one partial, over two
// samples, so the reference path's runs of panels also cross from one
// sample into the next.
func TestS8RescaleLongRows(t *testing.T) {
	const cols = 130*PanelCols + 5
	rng := rand.New(rand.NewSource(21))
	for _, lo := range []float64{0, -127} {
		checkS8Rescale(t, rng, 5, 7, cols, 2, cols+3, lo)
	}
}
