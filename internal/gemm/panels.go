package gemm

import (
	"fmt"
	"math"
)

// This file holds the pre-packed int8 operands (see "Packed int8
// operands" in doc.go): the two layouts S8Panels runs on, the packers
// that build them, and the portable panel kernel. A caller whose int8
// operand is constant (a layer's weights) packs it once and reuses it; a
// caller that builds the other operand itself (im2col) writes it straight
// into panels with PackRows.

// PanelCols is the column width of one packed B panel.
const PanelCols = 16

// layout is the packed-operand format of an int8 panel kernel. The zero
// value is no layout: an operand that was never packed.
type layout uint8

const (
	// pairLayout holds int16 pairs: A rows of [a[2q], a[2q+1]] and B
	// panels of [b[2q][j], b[2q+1][j]], zero-padded to an even k.
	pairLayout layout = iota + 1
	// quadLayout holds byte quads: A rows of signed [a[4q], …, a[4q+3]],
	// zero-padded to a multiple of four, with each row's correction
	// −128·Σₖ a[i][k], and B panels of unsigned [u[4q][j], …,
	// u[4q+3][j]], u = b + 128. Columns past n hold u = 128 (b = 0);
	// rows past k may hold anything, since A's padding zeroes them.
	quadLayout
)

func (l layout) String() string {
	switch l {
	case pairLayout:
		return "pairs"
	case quadLayout:
		return "quads"
	}
	return "none"
}

// steps returns how many pairs or quads cover reduction length k: the
// dwords in one packed row of A, the 64-byte steps in one panel of B.
func (l layout) steps(k int) int {
	if l == quadLayout {
		return (k + 3) / 4
	}
	return (k + 1) / 2
}

// layout returns the operand layout kernel k multiplies.
func (k s8Kernel) layout() layout {
	if k >= kernelAVXVNNI {
		return quadLayout
	}
	return pairLayout
}

// checkLayout panics unless an operand packed in lay can run on the
// selected kernel.
func checkLayout(what, operand string, lay layout) {
	if want := s8Level.layout(); lay != want {
		panic(fmt.Sprintf("gemm: %s %s packed as %v, but the %v kernel multiplies %v", what, operand, lay, s8Level, want))
	}
}

// PackedA is the A operand of S8Panels: an m×k int8 matrix packed in the
// layout of the kernel selected when it was packed. The zero value is an
// empty operand; PackA fills it, reusing its storage.
type PackedA struct {
	m, k  int
	lay   layout
	pairs []int16 // pairLayout: m rows of steps(k) pairs
	quads []int8  // quadLayout: m rows of steps(k) quads
	corr  []int32 // quadLayout: −128·Σₖ a[i][k] per row
}

// Panels is the B operand of S8Panels: a k×(16·np) int8 matrix packed as
// np 16-column panels in the layout of the kernel selected when it was
// sized. The zero value holds no panels; Resize or PackBT sizes it,
// reusing its storage.
type Panels struct {
	k, np int
	lay   layout
	pairs []int16 // pairLayout: steps(k) × 32 values per panel
	quads []uint8 // quadLayout: steps(k) × 64 bytes per panel
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is short. Contents are not preserved.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Resize makes b hold np panels for reduction length k in the layout of
// the selected kernel. Their contents are undefined until PackRows fills
// them.
func (b *Panels) Resize(k, np int) {
	b.k, b.np, b.lay = k, np, s8Level.layout()
	n := b.lay.steps(k) * np
	if b.lay == quadLayout {
		b.quads = grow(b.quads, n*4*PanelCols)
	} else {
		b.pairs = grow(b.pairs, n*2*PanelCols)
	}
}

// PackA packs A (m×k int8, row-major) into dst in the selected kernel's
// layout.
func PackA(dst *PackedA, a []int8, m, k int) {
	dst.m, dst.k, dst.lay = max(m, 0), max(k, 0), s8Level.layout()
	if m <= 0 || k <= 0 {
		return
	}
	_ = a[m*k-1]
	if dst.lay == quadLayout {
		w := 4 * dst.lay.steps(k)
		dst.quads = grow(dst.quads, m*w)
		dst.corr = grow(dst.corr, m)
		for i := range m {
			row := dst.quads[i*w : (i+1)*w]
			copy(row, a[i*k:(i+1)*k])
			clear(row[k:])
			dst.corr[i] = -128 * rowSum(row)
		}
		return
	}
	dst.pairs = grow(dst.pairs, m*2*dst.lay.steps(k))
	s8PackA(dst.pairs, a, m, k)
}

// PackBT sizes dst to ⌈n/16⌉ panels and packs B (k×n) into them from its
// transpose — bt holds n rows of k int8 values, the layout of a dense
// layer's weight matrix. Columns past n are zero, so a product over the
// padded panel adds nothing to them.
func PackBT(dst *Panels, bt []int8, n, k int) {
	np := (max(n, 0) + PanelCols - 1) / PanelCols
	dst.Resize(max(k, 0), np)
	if n <= 0 || k <= 0 {
		return
	}
	_ = bt[n*k-1]
	if dst.lay == quadLayout {
		packBTQuads(dst.quads, bt, n, k)
		return
	}
	j := 0
	if haveAsmKernels && n >= PanelCols {
		s8PackBT(dst.pairs, bt, k, n/PanelCols)
		j = n / PanelCols * PanelCols
	}
	packBTGeneric(dst.pairs, bt, n, k, j)
}

// PackRows packs an int8 matrix B (k×16·np) whose rows lie anywhere in
// src into panels [p0, p0+np) of dst, which Resize sized for k = len(offs)
// and at least p0+np panels: element (p, j) is src[offs[p] + j·stride].
// It is the im2col of a convolution, where row p is one tap's view of a
// zero-padded input row, read at the convolution's stride. src must
// extend stride·16·np bytes past every offset.
func PackRows(dst *Panels, p0 int, src []int8, offs []int, stride, np int) {
	k := len(offs)
	if k == 0 || np <= 0 {
		return
	}
	checkLayout("PackRows", "panels", dst.lay)
	if k != dst.k || p0 < 0 || p0+np > dst.np {
		panic(fmt.Sprintf("gemm: PackRows of %d rows into panels [%d, %d) of %d sized for k = %d", k, p0, p0+np, dst.np, dst.k))
	}
	if stride <= 0 {
		panic("gemm: PackRows stride must be positive")
	}
	for _, o := range offs {
		_ = src[o]
		_ = src[o+stride*np*PanelCols-1]
	}
	if dst.lay == quadLayout {
		kq := dst.lay.steps(k)
		d := dst.quads[p0*kq*4*PanelCols:]
		if stride > 2 {
			packRowsQuads(d, src, offs, stride, kq, np)
			return
		}
		if q := k / 4; q > 0 {
			s8PackQuads(&d[0], &src[0], &offs[0], stride, q, kq, np)
		}
		if r := k % 4; r > 0 {
			// The last quad's rows past k repeat row k−r: A's zero
			// padding multiplies them, so any value is exact.
			var last [4]int
			for i := range last {
				last[i] = offs[k-r+min(i, r-1)]
			}
			s8PackQuads(&d[(kq-1)*4*PanelCols], &src[0], &last[0], stride, 1, kq, np)
		}
		return
	}
	kp := dst.lay.steps(k)
	d := dst.pairs[p0*kp*2*PanelCols:]
	q := 0
	if haveAsmKernels && stride <= 2 {
		if q = k / 2; q > 0 {
			s8PackRows(&d[0], &src[0], &offs[0], stride, q, kp, np)
		}
	}
	var r0, r1 [PanelCols]int8
	for ; q < kp; q++ {
		for p := 0; p < np; p++ {
			gather(&r0, src, offs[2*q]+p*PanelCols*stride, stride)
			r1 = [PanelCols]int8{} // an odd k's last row pairs with zero
			if 2*q+1 < k {
				gather(&r1, src, offs[2*q+1]+p*PanelCols*stride, stride)
			}
			dp := (*[2 * PanelCols]int16)(d[(p*kp+q)*2*PanelCols:])
			for j := range r0 {
				dp[2*j], dp[2*j+1] = int16(r0[j]), int16(r1[j])
			}
		}
	}
}

// gather copies the 16 values src[o], src[o+stride], … into r.
func gather(r *[PanelCols]int8, src []int8, o, stride int) {
	if stride == 1 {
		*r = [PanelCols]int8(src[o:])
		return
	}
	for j := range r {
		r[j] = src[o+j*stride]
	}
}

// S8Panels computes C += A·B with exact int32 accumulators, A packed by
// PackA and B by PackBT or PackRows for the same k. C is m×(16·np) with
// row stride ldc ≥ 16·np; panel P updates columns [16P, 16P+16) of every
// row. Both operands must be in the selected kernel's layout: one packed
// before s8Level changed panics rather than being misread.
func S8Panels(c []int32, ldc int, a *PackedA, b *Panels) {
	m, np := a.m, b.np
	if m == 0 || a.k == 0 || np == 0 {
		return
	}
	checkOperands("S8Panels", a, b)
	if ldc < np*PanelCols {
		panic("gemm: S8Panels row stride shorter than its panels")
	}
	_ = c[(m-1)*ldc+np*PanelCols-1]
	s8PanelsAt(c, ldc, a, 0, m, b, 0, np)
}

// checkOperands panics unless a and b are in the selected kernel's
// layout and share their reduction length.
func checkOperands(what string, a *PackedA, b *Panels) {
	checkLayout(what, "A", a.lay)
	checkLayout(what, "B", b.lay)
	if b.k != a.k {
		panic(fmt.Sprintf("gemm: %s A has k = %d, B k = %d", what, a.k, b.k))
	}
}

// s8PanelsAt runs the selected kernel on rows [i0, i0+rows) of A and
// panels [p0, p0+np) of B, adding row i0's panel p0 into c[0:16].
func s8PanelsAt(c []int32, ldc int, a *PackedA, i0, rows int, b *Panels, p0, np int) {
	steps := a.lay.steps(a.k)
	switch {
	case a.lay == quadLayout:
		s8QuadsAsm(&c[0], &a.quads[i0*4*steps], &b.quads[p0*steps*4*PanelCols], rows, steps, ldc, np, &a.corr[i0])
	case haveAsmKernels:
		s8PairsAsm(&c[0], &a.pairs[i0*2*steps], &b.pairs[p0*steps*2*PanelCols], rows, steps, ldc, np)
	default:
		s8PanelsGeneric(c, ldc, a.pairs[i0*2*steps:], rows, steps, b.pairs[p0*steps*2*PanelCols:], np)
	}
}

// S8Rescale computes A·B and writes it requantized to int8, the int8
// convolution's whole step: with A packed by PackA and B by PackRows,
//
//	dst[(g·m + i)·ld + t] = Requantize(float32(Σₖ a[i][k]·b[k][16·g·nps + t] + bias[i])·mult[i], lo)
//
// for t < cols, where nps = ⌈cols/16⌉ and B holds whole groups of nps
// panels, one group g per sample: each sample's product lands in its
// own m rows of length cols, stride ld ≥ cols. The int32 sum wraps like
// Go's; lo is 0 or −127. No byte of dst past a row's cols is written, so
// the panel columns past cols are computed and dropped.
//
// It equals S8Panels on zeroed accumulators followed by RescaleRow on
// each row. On the avx512vnni kernel the product stores instead of
// accumulating: each row starts from its correction plus bias[i] (int32
// addition is associative, so the bias may come first) and is rounded
// and narrowed in registers; the other kernels run that composition.
func S8Rescale(dst []int8, ld, cols int, a *PackedA, b *Panels, bias []int32, mult []float32, lo float64) {
	m, np := a.m, b.np
	if m == 0 || np == 0 {
		return
	}
	checkOperands("S8Rescale", a, b)
	nps := (cols + PanelCols - 1) / PanelCols
	if cols <= 0 || np%nps != 0 || ld < cols {
		panic(fmt.Sprintf("gemm: S8Rescale of %d panels into rows of %d columns, stride %d", np, cols, ld))
	}
	groups := np / nps
	_ = dst[(groups*m-1)*ld+cols-1]
	_, _ = bias[m-1], mult[m-1]
	if s8Level != kernelVNNI || a.k == 0 || !doublable(mult[:m]) {
		s8RescaleRef(dst, ld, cols, a, b, bias, mult, lo)
		return
	}
	steps := a.lay.steps(a.k)
	last := cols - (nps-1)*PanelCols
	for g := range groups {
		s8RescaleVNNI(&dst[g*m*ld], &a.quads[0], &b.quads[g*nps*steps*4*PanelCols], m, steps, ld, nps, &a.corr[0], &bias[0], &mult[0], last, float32(lo))
	}
}

// doublable reports whether every multiplier doubles to a finite
// float32 (|mult| ≤ 2¹²⁶, NaN excluded), so that the avx512vnni rescale
// kernel's float32(acc+bias)·2mult is never NaN and is
// 2·(float32(acc+bias)·mult) wherever that matters (doc.go).
func doublable(mult []float32) bool {
	for _, v := range mult {
		if math.Float32bits(v)&0x7fffffff > 0x7e800000 {
			return false
		}
	}
	return true
}

// s8RescaleRef is S8Rescale as S8Panels + RescaleRow on zeroed
// accumulators held on the stack: blocks of up to refRows rows, enough
// for every kernel's row blocking, by as many of B's panels as the
// accumulators fit, across samples like the cross-sample lowering packs
// them; then each sample's part of a block is requantized into that
// sample's rows.
func s8RescaleRef(dst []int8, ld, cols int, a *PackedA, b *Panels, bias []int32, mult []float32, lo float64) {
	const refCells, refRows = 2048, 16
	var acc [refCells]int32
	m := a.m
	nps := (cols + PanelCols - 1) / PanelCols
	rows := min(m, refRows)
	run := min(b.np, refCells/(rows*PanelCols))
	for p0 := 0; p0 < b.np; p0 += run {
		np := min(run, b.np-p0)
		ldc := np * PanelCols
		for i0 := 0; i0 < m; i0 += rows {
			r := min(rows, m-i0)
			c := acc[:r*ldc]
			clear(c)
			if a.k > 0 {
				s8PanelsAt(c, ldc, a, i0, r, b, p0, np)
			}
			// Panels [p, e) of the run belong to sample g, from its
			// column t0.
			for p, e := p0, 0; p < p0+np; p = e {
				g := p / nps
				e = min(p0+np, (g+1)*nps)
				t0, ct := p%nps*PanelCols, (p-p0)*PanelCols
				w := min((e-p)*PanelCols, cols-t0)
				for i := range r {
					o := (g*m+i0+i)*ld + t0
					RescaleRow(dst[o:o+w], c[i*ldc+ct:][:w], bias[i0+i], mult[i0+i], lo)
				}
			}
		}
	}
}

// s8PanelsGeneric is the portable S8Panels: per output element and pair
// q it adds a[2q]·b[2q][j] + a[2q+1]·b[2q+1][j], the dual-MAC every pair
// kernel performs, a whole panel row per pass in registers.
func s8PanelsGeneric(c []int32, ldc int, a []int16, m, kp int, b []int16, np int) {
	const pl = 2 * PanelCols // int16 values per pair of a panel
	for p := 0; p < np; p++ {
		panel := b[p*kp*pl : (p+1)*kp*pl]
		for i := 0; i < m; i++ {
			row := a[i*2*kp : (i+1)*2*kp]
			cr := (*[PanelCols]int32)(c[i*ldc+p*PanelCols:])
			c0, c1, c2, c3, c4, c5, c6, c7 := cr[0], cr[1], cr[2], cr[3], cr[4], cr[5], cr[6], cr[7]
			c8, c9, c10, c11, c12, c13, c14, c15 := cr[8], cr[9], cr[10], cr[11], cr[12], cr[13], cr[14], cr[15]
			for q := 0; q < kp; q++ {
				a0, a1 := int32(row[2*q]), int32(row[2*q+1])
				bq := (*[pl]int16)(panel[q*pl:])
				c0 += a0*int32(bq[0]) + a1*int32(bq[1])
				c1 += a0*int32(bq[2]) + a1*int32(bq[3])
				c2 += a0*int32(bq[4]) + a1*int32(bq[5])
				c3 += a0*int32(bq[6]) + a1*int32(bq[7])
				c4 += a0*int32(bq[8]) + a1*int32(bq[9])
				c5 += a0*int32(bq[10]) + a1*int32(bq[11])
				c6 += a0*int32(bq[12]) + a1*int32(bq[13])
				c7 += a0*int32(bq[14]) + a1*int32(bq[15])
				c8 += a0*int32(bq[16]) + a1*int32(bq[17])
				c9 += a0*int32(bq[18]) + a1*int32(bq[19])
				c10 += a0*int32(bq[20]) + a1*int32(bq[21])
				c11 += a0*int32(bq[22]) + a1*int32(bq[23])
				c12 += a0*int32(bq[24]) + a1*int32(bq[25])
				c13 += a0*int32(bq[26]) + a1*int32(bq[27])
				c14 += a0*int32(bq[28]) + a1*int32(bq[29])
				c15 += a0*int32(bq[30]) + a1*int32(bq[31])
			}
			cr[0], cr[1], cr[2], cr[3], cr[4], cr[5], cr[6], cr[7] = c0, c1, c2, c3, c4, c5, c6, c7
			cr[8], cr[9], cr[10], cr[11], cr[12], cr[13], cr[14], cr[15] = c8, c9, c10, c11, c12, c13, c14, c15
		}
	}
}

// packAGeneric is the portable pair-layout PackA.
func packAGeneric(dst []int16, a []int8, m, k int) {
	kp := pairLayout.steps(k)
	for i := 0; i < m; i++ {
		row := dst[i*2*kp : (i+1)*2*kp]
		for p, v := range a[i*k : (i+1)*k] {
			row[p] = int16(v)
		}
		if k%2 == 1 {
			row[k] = 0
		}
	}
}

// packBTGeneric packs rows [j0, n) of bt (n×k) as pair-layout panel
// columns and zero-fills the last panel's columns past n.
func packBTGeneric(dst []int16, bt []int8, n, k, j0 int) {
	kp := pairLayout.steps(k)
	np := (n + PanelCols - 1) / PanelCols
	for j := j0; j < np*PanelCols; j++ {
		base := (j/PanelCols*kp)*2*PanelCols + j%PanelCols*2
		for q := 0; q < kp; q++ {
			d := dst[base+q*2*PanelCols : base+q*2*PanelCols+2]
			d[0], d[1] = 0, 0
			if j >= n {
				continue
			}
			row := bt[j*k : (j+1)*k]
			d[0] = int16(row[2*q])
			if 2*q+1 < k {
				d[1] = int16(row[2*q+1])
			}
		}
	}
}

// packBTQuads packs bt (n×k) as quad-layout panel columns, b + 128 per
// byte, padding rows past k and columns past n with 128 (b = 0).
func packBTQuads(dst []uint8, bt []int8, n, k int) {
	kq := quadLayout.steps(k)
	np := (n + PanelCols - 1) / PanelCols
	for j := 0; j < np*PanelCols; j++ {
		base := j/PanelCols*kq*4*PanelCols + j%PanelCols*4
		for p := 0; p < 4*kq; p++ {
			u := uint8(0x80)
			if j < n && p < k {
				u ^= uint8(bt[j*k+p])
			}
			dst[base+p/4*4*PanelCols+p%4] = u
		}
	}
}

// packRowsQuads is the portable quad-layout PackRows: it packs np panels
// kq quads long, b + 128 per byte, with rows past k read as b = 0.
func packRowsQuads(dst []uint8, src []int8, offs []int, stride, kq, np int) {
	var r [PanelCols]int8
	for q := 0; q < kq; q++ {
		for p := 0; p < np; p++ {
			d := (*[4 * PanelCols]uint8)(dst[(p*kq+q)*4*PanelCols:])
			for i := range 4 {
				r = [PanelCols]int8{}
				if row := 4*q + i; row < len(offs) {
					gather(&r, src, offs[row]+p*PanelCols*stride, stride)
				}
				for j, v := range r {
					d[4*j+i] = uint8(v) ^ 0x80
				}
			}
		}
	}
}

// s8Kernel names one implementation of the int8 panel product. All of
// them are exact-integer equal: each output lane adds the same products,
// and two's-complement addition is associative.
type s8Kernel int

const (
	kernelGeneric s8Kernel = iota // portable Go: purego and non-amd64 builds
	kernelSSE2                    // PMADDWL + PADDL on pairs, two rows per pass
	kernelAVX2                    // VPMADDWD + VPADDD on pairs in Y registers, four rows per pass
	kernelAVXVNNI                 // VEX VPDPBUSD on quads in Y registers (AVX-VNNI), four rows per pass
	kernelVNNI                    // EVEX VPDPBUSD on quads in Z registers (AVX512_VNNI), eight rows per pass
)

func (k s8Kernel) String() string {
	switch k {
	case kernelSSE2:
		return "sse2"
	case kernelAVX2:
		return "avx2"
	case kernelAVXVNNI:
		return "avxvnni"
	case kernelVNNI:
		return "avx512vnni"
	}
	return "generic"
}
