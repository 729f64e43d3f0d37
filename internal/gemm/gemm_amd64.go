//go:build amd64 && !purego

package gemm

// haveAsmKernels gates the panel kernels in gemm_amd64.s. The float32
// kernels, the int8 packers and the requantize rows are SSE2, part of the
// amd64 baseline (GOAMD64=v1), so they need no runtime feature check; the
// int8 panel product picks the widest kernel the CPU supports once at
// init (s8Level, cpu_amd64.go). Build with -tags purego to force the
// portable scalar path.
const haveAsmKernels = true

// f32Panel16 computes a 16-column panel: for each of the m rows,
// c[i·n+0..16) += Σ_p a[i·k+p] · b[p·n+0..16), the p products added one
// vector op at a time in ascending-p order (MULPS+ADDPS, no FMA), so each
// output lane reproduces the scalar chain bitwise. Pointers address the
// panel's first column; strides stay the full row lengths.
//
//go:noescape
func f32Panel16(c, a, b *float32, m, k, n int)

// f32Panel8 is the 8-column form of f32Panel16.
//
//go:noescape
func f32Panel8(c, a, b *float32, m, k, n int)

// f32Panel4 is the 4-column form of f32Panel16.
//
//go:noescape
func f32Panel4(c, a, b *float32, m, k, n int)

// s8Widen8 sign-extends blocks×8 int8 values of src into dst.
//
//go:noescape
func s8Widen8(dst *int16, src *int8, blocks int)

// s8PackBT8 packs rows [0, 16·np) of B (n×k, row-major) as the columns of
// the same panels — Bᵀ without a transpose pass — covering pairs
// [0, 4·⌊k/8⌋); requires k ≥ 8.
//
//go:noescape
func s8PackBT8(dst *int16, b *int8, k, np int)

// s8Panels computes C += A·B over np pair-layout panels with exact
// int32 accumulators: A is m rows of kp int16 pairs, C row-major with row
// length n. Two rows of A share each panel load; PMADDWL folds the pair
// a[2q]·b[2q][j] + a[2q+1]·b[2q+1][j] into one dual-MAC per lane — int16
// products of int8 operands are exact and two's-complement int32
// addition is associative, so the pairing cannot change the result.
//
//go:noescape
func s8Panels(c *int32, a, b *int16, m, kp, n, np int)

// s8PanelsAVX2 is s8Panels on 256-bit registers: four rows of A per pass,
// each row's 16 columns in two accumulators, VPMADDWD then VPADDD.
//
//go:noescape
func s8PanelsAVX2(c *int32, a, b *int16, m, steps, ldc, np int)

// s8QuadsAVXVNNI is the quad-layout product on 256-bit registers: four
// rows of A per pass, one VEX-encoded VPDPBUSD (AVX-VNNI) per row and
// half panel per quad, each row seeded with its correction corr[i].
//
//go:noescape
func s8QuadsAVXVNNI(c *int32, a *int8, b *uint8, m, steps, ldc, np int, corr *int32)

// s8QuadsVNNI is the AVX512_VNNI quad kernel (vnni_amd64.s): one Z
// register per row's 16 columns, two panels by eight rows per pass, each
// row's A quad broadcast once into a register for both panels.
//
//go:noescape
func s8QuadsVNNI(c *int32, a *int8, b *uint8, m, steps, ldc, np int, corr *int32)

// s8RescaleVNNI is the store form of s8QuadsVNNI (S8Rescale): each row
// is seeded with corr[i] + bias[i] instead of loaded from C, and after
// the product each accumulator is multiplied by mult[i], rounded as
// RescaleRow does and narrowed into the int8 row at c + i·ldc. Every
// panel stores 16 columns except the last, which stores `last`.
//
//go:noescape
func s8RescaleVNNI(c *int8, a *int8, b *uint8, m, steps, ldc, np int, corr, bias *int32, mult *float32, last int, lo float32)

// s8PackRows packs pairs row pairs (offs[2q], offs[2q+1]) of src, read
// at stride 1 or 2 over 16·np columns, as pair q of np panels kp pairs
// long (PackRows, pair layout).
//
//go:noescape
func s8PackRows(dst *int16, src *int8, offs *int, stride, pairs, kp, np int)

// s8PackQuads packs quads row quads (offs[4q], …, offs[4q+3]) of src,
// read at stride 1 or 2 over 16·np columns, as quad q of np panels kq
// quads long, each byte offset by +128 (PackRows, quad layout).
//
//go:noescape
func s8PackQuads(dst *uint8, src *int8, offs *int, stride, quads, kq, np int)

// s8Sum16 returns the sum of blocks×16 int8 values.
//
//go:noescape
func s8Sum16(src *int8, blocks int) int32

// s8PairsAsm runs the pair-layout panel product on the kernel s8Level
// selects.
func s8PairsAsm(c *int32, a, b *int16, m, kp, ldc, np int) {
	if s8Level == kernelAVX2 {
		s8PanelsAVX2(c, a, b, m, kp, ldc, np)
		return
	}
	s8Panels(c, a, b, m, kp, ldc, np)
}

// s8QuadsAsm runs the quad-layout panel product on the kernel s8Level
// selects.
func s8QuadsAsm(c *int32, a *int8, b *uint8, m, kq, ldc, np int, corr *int32) {
	if s8Level == kernelVNNI {
		s8QuadsVNNI(c, a, b, m, kq, ldc, np, corr)
		return
	}
	s8QuadsAVXVNNI(c, a, b, m, kq, ldc, np, corr)
}

// rowSum returns the int32 sum of row, wrapping like Go's.
func rowSum(row []int8) int32 {
	var s int32
	n := len(row) &^ 15
	if n > 0 {
		s = s8Sum16(&row[0], n/16)
	}
	for _, v := range row[n:] {
		s += int32(v)
	}
	return s
}

// rescaleRow8 runs RescaleRow's element expression over blocks×8
// accumulators: PADDL the bias, CVTPL2PS, MULPS the multiplier, then the
// float32-domain rounding of REQUANT (gemm_amd64.s).
//
//go:noescape
func rescaleRow8(dst *int8, acc *int32, blocks int, bias int32, mult, lo float32)

// quantizeRow8 is the input form of rescaleRow8: DIVPS by scale, then the
// same rounding.
//
//go:noescape
func quantizeRow8(dst *int8, x *float32, blocks int, scale, lo float32)

// rescaleRow16 is rescaleRow8 on 256-bit registers, 16 elements per
// pass (avx_amd64.s).
//
//go:noescape
func rescaleRow16(dst *int8, acc *int32, blocks int, bias int32, mult, lo float32)

// quantizeRow16 is quantizeRow8 on 256-bit registers.
//
//go:noescape
func quantizeRow16(dst *int8, x *float32, blocks int, scale, lo float32)

// rescaleAsm covers the first ⌊len(acc)/8⌋·8 elements of a RescaleRow
// with the SIMD rows — 16 at a time where s8Level has AVX2 — and returns
// how many it did. lo is 0 or −127, both exact in float32.
func rescaleAsm(dst []int8, acc []int32, bias int32, mult float32, lo float64) int {
	i := 0
	if s8Level >= kernelAVX2 && len(acc) >= 16 {
		i = len(acc) &^ 15
		rescaleRow16(&dst[0], &acc[0], i/16, bias, mult, float32(lo))
	}
	if n := len(acc) &^ 7; n > i {
		rescaleRow8(&dst[i], &acc[i], (n-i)/8, bias, mult, float32(lo))
		i = n
	}
	return i
}

// quantizeAsm is the quantizeRow form of rescaleAsm.
func quantizeAsm(dst []int8, x []float32, scale float32, lo float64) int {
	i := 0
	if s8Level >= kernelAVX2 && len(x) >= 16 {
		i = len(x) &^ 15
		quantizeRow16(&dst[0], &x[0], i/16, scale, float32(lo))
	}
	if n := len(x) &^ 7; n > i {
		quantizeRow8(&dst[i], &x[i], (n-i)/8, scale, float32(lo))
		i = n
	}
	return i
}

// f32Asm runs the F32 update through the widest applicable column panels,
// finishing sub-4-column tails with the scalar reference loop. Requires
// m, k, n ≥ 1 (the exported wrapper's degenerate-shape guard).
func f32Asm(c, a, b []float32, m, k, n int) {
	j := 0
	for ; j+16 <= n; j += 16 {
		f32Panel16(&c[j], &a[0], &b[j], m, k, n)
	}
	for ; j+8 <= n; j += 8 {
		f32Panel8(&c[j], &a[0], &b[j], m, k, n)
	}
	for ; j+4 <= n; j += 4 {
		f32Panel4(&c[j], &a[0], &b[j], m, k, n)
	}
	if j < n {
		f32Generic(c, a, b, m, k, n, j)
	}
}

// f32NTAsm computes C += A·Bᵀ by packing B (n×k) into a pooled k×n panel
// and running the plain column kernels over it: per output element the
// reduction still walks p ascending, so the result is bitwise identical
// to the scalar dot-product form.
func f32NTAsm(c, a, b []float32, m, k, n int) {
	bt := f32PackPool.get(k * n)
	transposeInto(bt, b, n, k)
	f32Asm(c, a, bt, m, k, n)
	f32PackPool.put(bt)
}

// s8PackA widens A (m×k) into m rows of ⌈k/2⌉ int16 pairs, the pair
// layout; an odd k pads each row with a zero partner.
func s8PackA(dst []int16, a []int8, m, k int) {
	if k%2 == 0 {
		s8Widen(dst, a)
		return
	}
	for i := 0; i < m; i++ {
		row := dst[i*(k+1) : (i+1)*(k+1)]
		s8Widen(row[:k], a[i*k:(i+1)*k])
		row[k] = 0
	}
}

// s8Widen sign-extends src into dst (same length).
func s8Widen(dst []int16, src []int8) {
	n := len(src) &^ 7
	if n > 0 {
		s8Widen8(&dst[0], &src[0], n/8)
	}
	for i := n; i < len(src); i++ {
		dst[i] = int16(src[i])
	}
}

// s8PackBT packs the first 16·np rows of B (n×k) into panels: column j of
// panel P is row 16P+j, its pair q the adjacent bytes (b[j][2q],
// b[j][2q+1]). The asm covers whole 8-byte chunks; the pairs past them —
// and an odd k's zero partner — are packed here.
func s8PackBT(dst []int16, b []int8, k, np int) {
	kp := (k + 1) / 2
	q0 := 0
	if k >= 8 {
		s8PackBT8(&dst[0], &b[0], k, np)
		q0 = k / 8 * 4
	}
	for j := 0; j < 16*np; j++ {
		row := b[j*k : (j+1)*k]
		base := j/16*kp*32 + j%16*2
		for q := q0; q < kp; q++ {
			d := dst[base+q*32 : base+q*32+2]
			d[0], d[1] = int16(row[2*q]), 0
			if 2*q+1 < k {
				d[1] = int16(row[2*q+1])
			}
		}
	}
}
