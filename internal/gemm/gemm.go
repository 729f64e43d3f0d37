package gemm

// The float kernels dispatch between the SSE2 panel kernels in
// gemm_amd64.s (amd64, unless built with -tags purego) and the portable
// scalar implementations in generic.go. Both paths accumulate every output
// element in the same bias-seeded ascending-k chain, so the dispatch is
// invisible: float32 results are bitwise identical either way (fuzzed in
// fuzz_test.go). The int8 product is S8Panels on pre-packed operands
// (panels.go).

// ntPackMinM gates the packed-Bᵀ asm path of F32NT: packing B
// into the k-major panels the column kernels consume costs k·n moves
// against m·k·n MACs, so it only pays once the panels are reused across a
// few rows of A. Below the threshold the dot-product scalar form is
// already the right shape.
const ntPackMinM = 4

// F32 computes C += A·B with A (m×k), B (k×n) and C (m×n), all row-major
// and dense (no leading-dimension padding). Per output element the k
// products are accumulated in ascending-k order on top of the existing C
// value.
func F32(c, a, b []float32, m, k, n int) {
	if m <= 0 || k <= 0 || n <= 0 {
		return
	}
	_ = a[m*k-1]
	_ = b[k*n-1]
	_ = c[m*n-1]
	if haveAsmKernels && n >= 4 {
		f32Asm(c, a, b, m, k, n)
		return
	}
	f32Generic(c, a, b, m, k, n, 0)
}

// F64 computes C += A·B in float64 with A (m×k), B (k×n) and C (m×n),
// all row-major and dense — the double-precision reference shape the
// belief layer's bin-space matvecs lower onto. There is no asm variant
// yet; the scalar panels use the same bias-seeded ascending-k chains as
// F32, so a future SIMD kernel must (and can) match bitwise.
func F64(c, a, b []float64, m, k, n int) {
	if m <= 0 || k <= 0 || n <= 0 {
		return
	}
	_ = a[m*k-1]
	_ = b[k*n-1]
	_ = c[m*n-1]
	f64Generic(c, a, b, m, k, n, 0)
}

// F32NT computes C += A·Bᵀ with A (m×k), B (n×k) and C (m×n), all
// row-major: C[i][j] += Σ_p A[i][p]·B[j][p]. On amd64 large-enough shapes
// transpose B into a pooled k×n panel and run the same vector kernels as
// F32 — the per-element reduction order is unchanged, so results stay
// bitwise identical to the scalar dot-product form.
func F32NT(c, a, b []float32, m, k, n int) {
	if m <= 0 || k <= 0 || n <= 0 {
		return
	}
	_ = a[m*k-1]
	_ = b[n*k-1]
	_ = c[m*n-1]
	if haveAsmKernels && m >= ntPackMinM && n >= 4 {
		f32NTAsm(c, a, b, m, k, n)
		return
	}
	f32NTGeneric(c, a, b, m, k, n)
}
