//go:build amd64 && !purego

package gemm

// haveAsmKernels gates the SSE2 panel kernels in gemm_amd64.s. SSE2 is
// part of the amd64 baseline (GOAMD64=v1), so no runtime feature check is
// needed; build with -tags purego to force the portable scalar path.
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

// s8PackB packs columns [0, 16·np) of B (k×n, row-major) into the int16
// pair panels s8Panels consumes (layout in gemm_amd64.s); an odd k pairs
// its last row with zero.
//
//go:noescape
func s8PackB(dst *int16, b *int8, k, n, np int)

// s8PackBT8 packs rows [0, 16·np) of B (n×k, row-major) as the columns of
// the same panels — Bᵀ without a transpose pass — covering pairs
// [0, 4·⌊k/8⌋); requires k ≥ 8.
//
//go:noescape
func s8PackBT8(dst *int16, b *int8, k, np int)

// s8Panels computes C += A·B over np packed 16-column panels with exact
// int32 accumulators: A is m rows of kp int16 pairs, C row-major with row
// length n. Two rows of A share each panel load; PMADDWL folds the pair
// a[2q]·b[2q][j] + a[2q+1]·b[2q+1][j] into one dual-MAC per lane — int16
// products of int8 operands are exact and two's-complement int32
// addition is associative, so the pairing cannot change the result.
//
//go:noescape
func s8Panels(c *int32, a, b *int16, m, kp, n, np int)

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

// rescaleAsm covers the first ⌊len(acc)/8⌋·8 elements of a RescaleRow
// with the SSE2 row and returns how many it did. lo is 0 or −127, both
// exact in float32.
func rescaleAsm(dst []int8, acc []int32, bias int32, mult float32, lo float64) int {
	n := len(acc) &^ 7
	if n > 0 {
		rescaleRow8(&dst[0], &acc[0], n/8, bias, mult, float32(lo))
	}
	return n
}

// quantizeAsm is the quantizeRow form of rescaleAsm.
func quantizeAsm(dst []int8, x []float32, scale float32, lo float64) int {
	n := len(x) &^ 7
	if n > 0 {
		quantizeRow8(&dst[0], &x[0], n/8, scale, float32(lo))
	}
	return n
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

// s8Asm runs the S8 update through the packed int16 panels, finishing
// the columns past the last full panel with the scalar reference loop.
func s8Asm(c []int32, a, b []int8, m, k, n int) {
	if j := s8Packed(c, a, b, m, k, n, false); j < n {
		s8Generic(c, a, b, m, k, n, j)
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

// s8NTAsm is the S8NT form of s8Asm: rows of B pack straight into the
// panels as columns, so the int8 path needs no transpose buffer.
func s8NTAsm(c []int32, a, b []int8, m, k, n int) {
	if j := s8Packed(c, a, b, m, k, n, true); j < n {
		s8NTGeneric(c, a, b, m, k, n, j)
	}
}

// s8Packed packs A and the first ⌊n/16⌋ panels of B (of Bᵀ when bt, B
// then being n×k) into pooled int16 pair panels, runs s8Panels over them
// and returns the first column it did not cover.
func s8Packed(c []int32, a, b []int8, m, k, n int, bt bool) int {
	np := n / 16
	if np == 0 {
		return 0
	}
	kp := (k + 1) / 2
	buf := s8PanelPool.get(2 * kp * (m + 16*np))
	ap, bp := buf[:2*kp*m], buf[2*kp*m:]
	s8PackA(ap, a, m, k)
	if bt {
		s8PackBT(bp, b, k, np)
	} else {
		s8PackB(&bp[0], &b[0], k, n, np)
	}
	s8Panels(&c[0], &ap[0], &bp[0], m, kp, n, np)
	s8PanelPool.put(buf)
	return np * 16
}

// s8PackA widens A (m×k) into m rows of ⌈k/2⌉ int16 pairs; an odd k pads
// each row with a zero partner.
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
