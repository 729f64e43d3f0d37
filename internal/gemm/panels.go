package gemm

// This file holds the pre-packed int8 operands (see "Packed int8
// operands" in doc.go): the pair-row and pair-panel layouts S8Panels
// runs on, the packers that build them, and the portable panel kernel.
// A caller whose int8 operand is constant (a layer's weights) packs it
// once and reuses it; a caller that builds the other operand itself
// (im2col) writes it straight into panels with PackRows.

// PanelCols is the column width of one packed B panel.
const PanelCols = 16

// Pairs returns ⌈k/2⌉: the number of int16 pairs in one packed row of A
// or one packed panel of B for reduction length k.
func Pairs(k int) int { return (k + 1) / 2 }

// PanelLen returns the int16 length of one packed B panel for reduction
// length k (Pairs(k) pairs of 16 columns).
func PanelLen(k int) int { return Pairs(k) * 2 * PanelCols }

// PackA widens A (m×k int8, row-major) into dst as m rows of Pairs(k)
// int16 pairs [a[i][2q], a[i][2q+1]], the A operand of S8Panels. An odd k
// pairs each row's last element with zero. dst must hold m·2·Pairs(k)
// elements.
func PackA(dst []int16, a []int8, m, k int) {
	if m <= 0 || k <= 0 {
		return
	}
	_ = a[m*k-1]
	_ = dst[m*2*Pairs(k)-1]
	s8PackA(dst, a, m, k)
}

// PackBT packs B (k×n) from its transpose — bt holds n rows of k int8
// values, the layout of a dense layer's weight matrix — into ⌈n/16⌉
// panels; columns past n are zero, so a product over the padded panel
// adds nothing to them. dst must hold ⌈n/16⌉·PanelLen(k) elements.
func PackBT(dst []int16, bt []int8, n, k int) {
	if n <= 0 || k <= 0 {
		return
	}
	np := (n + PanelCols - 1) / PanelCols
	_ = bt[n*k-1]
	_ = dst[np*PanelLen(k)-1]
	j := 0
	if haveAsmKernels && n >= PanelCols {
		s8PackBT(dst, bt, k, n/PanelCols)
		j = n / PanelCols * PanelCols
	}
	packBTGeneric(dst, bt, n, k, j)
}

// PackRows packs an int8 matrix B (k×16·np) whose rows lie anywhere in
// src into np panels: element (p, j) is src[offs[p] + j·stride], k =
// len(offs). It is the im2col of a convolution, where row p is one tap's
// view of a zero-padded input row, read at the convolution's stride.
// src must extend stride·16·np bytes past every offset; dst must hold
// np·PanelLen(k) elements.
func PackRows(dst []int16, src []int8, offs []int, stride, np int) {
	k := len(offs)
	if k == 0 || np <= 0 {
		return
	}
	if stride <= 0 {
		panic("gemm: PackRows stride must be positive")
	}
	kp := Pairs(k)
	_ = dst[np*PanelLen(k)-1]
	for _, o := range offs {
		_ = src[o]
		_ = src[o+stride*np*PanelCols-1]
	}
	q := 0
	if haveAsmKernels && stride <= 2 {
		q = k / 2
		if q > 0 {
			s8PackRows(&dst[0], &src[0], &offs[0], stride, q, kp, np)
		}
	}
	var zero [PanelCols]int8
	var r0, r1 [PanelCols]int8
	for ; q < kp; q++ {
		for p := 0; p < np; p++ {
			gather(&r0, src, offs[2*q]+p*PanelCols*stride, stride)
			r1 = zero // an odd k's last row pairs with zero
			if 2*q+1 < k {
				gather(&r1, src, offs[2*q+1]+p*PanelCols*stride, stride)
			}
			d := (*[2 * PanelCols]int16)(dst[(p*kp+q)*2*PanelCols:])
			for j := range r0 {
				d[2*j], d[2*j+1] = int16(r0[j]), int16(r1[j])
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

// S8Panels computes C += A·B with exact int32 accumulators, A (m×k)
// packed by PackA and B as np panels packed by PackBT or PackRows. C is
// m×(16·np) with row stride ldc ≥ 16·np; panel P updates columns
// [16P, 16P+16) of every row.
func S8Panels(c []int32, ldc int, a []int16, m, k int, b []int16, np int) {
	if m <= 0 || k <= 0 || np <= 0 {
		return
	}
	kp := Pairs(k)
	if ldc < np*PanelCols {
		panic("gemm: S8Panels row stride shorter than its panels")
	}
	_ = a[m*2*kp-1]
	_ = b[np*PanelLen(k)-1]
	_ = c[(m-1)*ldc+np*PanelCols-1]
	if haveAsmKernels {
		s8PanelsAsm(&c[0], &a[0], &b[0], m, kp, ldc, np)
		return
	}
	s8PanelsGeneric(c, ldc, a, m, kp, b, np)
}

// s8PanelsGeneric is the portable S8Panels: per output element and pair
// q it adds a[2q]·b[2q][j] + a[2q+1]·b[2q+1][j], the dual-MAC every SIMD
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

// packAGeneric is the portable PackA.
func packAGeneric(dst []int16, a []int8, m, k int) {
	kp := Pairs(k)
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

// packBTGeneric packs rows [j0, n) of bt (n×k) as panel columns and
// zero-fills the last panel's columns past n.
func packBTGeneric(dst []int16, bt []int8, n, k, j0 int) {
	kp := Pairs(k)
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

// s8Kernel names one implementation of the int8 panel product. All of
// them are exact-integer equal: each output lane adds the same pair
// products, and two's-complement addition is associative.
type s8Kernel int

const (
	kernelGeneric s8Kernel = iota // portable Go: purego and non-amd64 builds
	kernelSSE2                    // PMADDWL + PADDL, two rows per pass
	kernelAVX2                    // VPMADDWD + VPADDD on Y registers, four rows per pass
	kernelAVXVNNI                 // VEX VPDPWSSD on Y registers (AVX-VNNI), four rows per pass
	kernelVNNI                    // EVEX VPDPWSSD on Z registers (AVX512_VNNI), eight rows per pass
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
