package gemm

// This file holds the portable scalar float kernels and requantize rows:
// the reference semantics the SIMD panels in gemm_amd64.s must reproduce
// bitwise, the only implementation off amd64 (or under -tags purego), and
// the column-tail finisher for panel widths the vector path does not
// cover. (The portable int8 panel product is in panels.go.) They are
// blocked for locality and register-unrolled 8- then 4-wide over
// independent output elements — never over the reduction dimension.

// f32Generic computes the F32 update over columns [j0, n). Per output
// element the k products are accumulated in ascending-k order on top of
// the existing C value.
func f32Generic(c, a, b []float32, m, k, n, j0 int) {
	j := j0
	for ; j+8 <= n; j += 8 {
		for i := 0; i < m; i++ {
			ar := a[i*k : i*k+k]
			ci := i*n + j
			cr := c[ci : ci+8 : ci+8]
			c0, c1, c2, c3 := cr[0], cr[1], cr[2], cr[3]
			c4, c5, c6, c7 := cr[4], cr[5], cr[6], cr[7]
			bi := j
			for p := 0; p < k; p++ {
				av := ar[p]
				br := b[bi : bi+8 : bi+8]
				c0 += av * br[0]
				c1 += av * br[1]
				c2 += av * br[2]
				c3 += av * br[3]
				c4 += av * br[4]
				c5 += av * br[5]
				c6 += av * br[6]
				c7 += av * br[7]
				bi += n
			}
			cr[0], cr[1], cr[2], cr[3] = c0, c1, c2, c3
			cr[4], cr[5], cr[6], cr[7] = c4, c5, c6, c7
		}
	}
	for ; j+4 <= n; j += 4 {
		for i := 0; i < m; i++ {
			ar := a[i*k : i*k+k]
			ci := i*n + j
			cr := c[ci : ci+4 : ci+4]
			c0, c1, c2, c3 := cr[0], cr[1], cr[2], cr[3]
			bi := j
			for p := 0; p < k; p++ {
				av := ar[p]
				br := b[bi : bi+4 : bi+4]
				c0 += av * br[0]
				c1 += av * br[1]
				c2 += av * br[2]
				c3 += av * br[3]
				bi += n
			}
			cr[0], cr[1], cr[2], cr[3] = c0, c1, c2, c3
		}
	}
	for ; j < n; j++ {
		for i := 0; i < m; i++ {
			ar := a[i*k : i*k+k]
			acc := c[i*n+j]
			bi := j
			for p := 0; p < k; p++ {
				acc += ar[p] * b[bi]
				bi += n
			}
			c[i*n+j] = acc
		}
	}
}

// f64Generic computes the F64 update over columns [j0, n), mirroring
// f32Generic's panel structure and per-element ascending-k accumulation.
func f64Generic(c, a, b []float64, m, k, n, j0 int) {
	j := j0
	for ; j+8 <= n; j += 8 {
		for i := 0; i < m; i++ {
			ar := a[i*k : i*k+k]
			ci := i*n + j
			cr := c[ci : ci+8 : ci+8]
			c0, c1, c2, c3 := cr[0], cr[1], cr[2], cr[3]
			c4, c5, c6, c7 := cr[4], cr[5], cr[6], cr[7]
			bi := j
			for p := 0; p < k; p++ {
				av := ar[p]
				br := b[bi : bi+8 : bi+8]
				c0 += av * br[0]
				c1 += av * br[1]
				c2 += av * br[2]
				c3 += av * br[3]
				c4 += av * br[4]
				c5 += av * br[5]
				c6 += av * br[6]
				c7 += av * br[7]
				bi += n
			}
			cr[0], cr[1], cr[2], cr[3] = c0, c1, c2, c3
			cr[4], cr[5], cr[6], cr[7] = c4, c5, c6, c7
		}
	}
	for ; j+4 <= n; j += 4 {
		for i := 0; i < m; i++ {
			ar := a[i*k : i*k+k]
			ci := i*n + j
			cr := c[ci : ci+4 : ci+4]
			c0, c1, c2, c3 := cr[0], cr[1], cr[2], cr[3]
			bi := j
			for p := 0; p < k; p++ {
				av := ar[p]
				br := b[bi : bi+4 : bi+4]
				c0 += av * br[0]
				c1 += av * br[1]
				c2 += av * br[2]
				c3 += av * br[3]
				bi += n
			}
			cr[0], cr[1], cr[2], cr[3] = c0, c1, c2, c3
		}
	}
	for ; j < n; j++ {
		for i := 0; i < m; i++ {
			ar := a[i*k : i*k+k]
			acc := c[i*n+j]
			bi := j
			for p := 0; p < k; p++ {
				acc += ar[p] * b[bi]
				bi += n
			}
			c[i*n+j] = acc
		}
	}
}

// f32NTGeneric computes the F32NT update: C[i][j] += Σ_p A[i][p]·B[j][p].
// The reduction runs over contiguous rows of both operands (the
// dot-product form), unrolled four rows of A at a time so each streamed B
// row is reused across four independent accumulators.
func f32NTGeneric(c, a, b []float32, m, k, n int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[i*k : i*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		for j := 0; j < n; j++ {
			br := b[j*k : j*k+k]
			c0 := c[i*n+j]
			c1 := c[(i+1)*n+j]
			c2 := c[(i+2)*n+j]
			c3 := c[(i+3)*n+j]
			for p, bv := range br {
				c0 += a0[p] * bv
				c1 += a1[p] * bv
				c2 += a2[p] * bv
				c3 += a3[p] * bv
			}
			c[i*n+j] = c0
			c[(i+1)*n+j] = c1
			c[(i+2)*n+j] = c2
			c[(i+3)*n+j] = c3
		}
	}
	for ; i < m; i++ {
		ar := a[i*k : i*k+k]
		for j := 0; j < n; j++ {
			br := b[j*k : j*k+k]
			acc := c[i*n+j]
			for p, bv := range br {
				acc += ar[p] * bv
			}
			c[i*n+j] = acc
		}
	}
}

// rescaleGeneric is RescaleRow's scalar loop: the whole row off amd64,
// the sub-8 tail on it.
func rescaleGeneric(dst []int8, acc []int32, bias int32, mult float32, lo float64) {
	dst = dst[:len(acc)]
	for i, a := range acc {
		dst[i] = Requantize(float32(a+bias)*mult, lo)
	}
}

// quantizeGeneric is quantizeRow's scalar loop.
func quantizeGeneric(dst []int8, x []float32, scale float32, lo float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = Requantize(v/scale, lo)
	}
}
