package tcn

import "fmt"

// This file holds the batched counterpart of the single-window tensor: the
// (N, C, T) layout the GEMM-backed inference and training paths run on,
// plus the im2col/col2im packing that lowers dilated 1-D convolution onto
// the internal/gemm micro-kernels.
//
// A window's result does not depend on its batch-mates: every sample
// occupies its own contiguous block, each output element is accumulated
// bias-first in ascending (channel, tap) order — the plain convolution
// loop's order — and the gemm kernels never reassociate the reduction. The
// record builder and the profiling tables rely on this, and the tests pin
// it against plain per-window reference loops (ref_test.go).

// BatchTensor is a dense rank-3 array of float32 laid out sample-major:
// element (n, c, t) lives at Data[(n*C+c)*T+t], so Sample(n) is the same
// contiguous C×T block a single-window Tensor holds.
type BatchTensor struct {
	N, C, T int
	Data    []float32
}

// NewBatchTensor allocates a zeroed N×C×T batch.
func NewBatchTensor(n, c, t int) *BatchTensor {
	if n < 0 || c < 0 || t < 0 {
		panic(fmt.Sprintf("tcn: invalid batch tensor shape %d×%d×%d", n, c, t))
	}
	return &BatchTensor{N: n, C: c, T: t, Data: make([]float32, n*c*t)}
}

// Sample returns the contiguous C×T block of sample n (channel-major, the
// Tensor layout).
func (x *BatchTensor) Sample(n int) []float32 {
	sz := x.C * x.T
	return x.Data[n*sz : (n+1)*sz]
}

// Row returns the slice backing channel c of sample n.
func (x *BatchTensor) Row(n, c int) []float32 {
	off := (n*x.C + c) * x.T
	return x.Data[off : off+x.T]
}

// SampleTensor fills a Tensor header viewing sample n (sharing storage).
func (x *BatchTensor) SampleTensor(n int) Tensor {
	return Tensor{C: x.C, T: x.T, Data: x.Sample(n)}
}

// ensureBatchTensor returns *slot resized to n×c×t, reusing the backing
// array whenever its capacity suffices. It is the layer-local arena
// primitive: reuse is capacity-based rather than exact-shape, because
// batch chunks shrink on ragged tails and the steady-state path must stay
// allocation-free across the full-chunk/tail-chunk alternation. Contents
// are NOT cleared; callers overwrite or zero as their accumulation
// pattern requires.
func ensureBatchTensor(slot **BatchTensor, n, c, t int) *BatchTensor {
	need := n * c * t
	x := *slot
	if x == nil {
		x = &BatchTensor{Data: make([]float32, need)}
		*slot = x
	} else if cap(x.Data) < need {
		x.Data = make([]float32, need)
	} else {
		x.Data = x.Data[:need]
	}
	x.N, x.C, x.T = n, c, t
	return x
}

// ensureSlice grows *buf to n elements, reusing capacity when possible.
// Contents are NOT cleared. It is the scratch-buffer twin of
// ensureBatchTensor, shared by the float32 and int8 batch paths.
func ensureSlice[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	} else {
		*buf = (*buf)[:n]
	}
	return *buf
}

// im2colRow fills one tap row of an im2col panel: row[t] =
// xRow[t·stride + off], or 0 where the tap reads outside [0, inT) — the
// exact additive identity. (The int8 path builds its im2col straight
// into gemm's packed panels instead; see qConv.panelIm2col.)
func im2colRow(row, xRow []float32, off, stride, inT, outT int) {
	t0, t1 := tapRange(off, stride, inT, outT)
	if t1 < t0 {
		for t := range row {
			row[t] = 0
		}
		return
	}
	for t := 0; t < t0; t++ {
		row[t] = 0
	}
	for t := t1 + 1; t < outT; t++ {
		row[t] = 0
	}
	if stride == 1 {
		copy(row[t0:t1+1], xRow[t0+off:t1+off+1])
	} else {
		src := t0*stride + off
		for t := t0; t <= t1; t++ {
			row[t] = xRow[src]
			src += stride
		}
	}
}

// im2col packs one C×T sample (xs, channel-major) into col as a J×outT
// row-major matrix with J = inC·kernel: col[(ci·K+k)·outT+t] holds
// xs[ci·inT + t·stride + k·dilation − padL]. Rows are ordered (ci, k)
// ascending — the plain convolution loop's accumulation order — so a GEMM
// over col reproduces it bitwise.
func im2col(col, xs []float32, inC, inT, kernel, dilation, stride, padL, outT int) {
	j := 0
	for ci := 0; ci < inC; ci++ {
		xRow := xs[ci*inT : (ci+1)*inT]
		for k := 0; k < kernel; k++ {
			im2colRow(col[j*outT:(j+1)*outT], xRow, k*dilation-padL, stride, inT, outT)
			j++
		}
	}
}

// im2colWide packs the patches of ALL N samples (data, sample-major with
// inC×inT per sample) into one J×(N·outT) row-major panel: tap row j
// holds every sample's outT-column block in batch order,
// col[j·wide + n·outT + t]. One GEMM over the wide panel computes the
// whole batch's convolution while each output element keeps the exact
// per-sample accumulation chain (rows are still (ci, k) ascending, and
// column position never enters the reduction). This is the cross-sample
// lowering that keeps TimePPG-Small's tiny per-layer matrices from
// underfeeding the vector kernels.
func im2colWide(col, data []float32, N, inC, inT, kernel, dilation, stride, padL, outT int) {
	wide := N * outT
	sz := inC * inT
	for n := 0; n < N; n++ {
		xs := data[n*sz : (n+1)*sz]
		j := 0
		for ci := 0; ci < inC; ci++ {
			xRow := xs[ci*inT : (ci+1)*inT]
			for k := 0; k < kernel; k++ {
				im2colRow(col[j*wide+n*outT:j*wide+(n+1)*outT], xRow, k*dilation-padL, stride, inT, outT)
				j++
			}
		}
	}
}

// col2imF32 scatter-adds a J×outT gradient matrix back into one C×T
// sample gradient. ld is the panel's row stride in elements: outT for a
// per-sample panel, N·outT when dcol points at one sample's column block
// inside a wide cross-sample panel. gxs must be pre-zeroed.
func col2imF32(gxs, dcol []float32, inC, inT, kernel, dilation, stride, padL, outT, ld int) {
	j := 0
	for ci := 0; ci < inC; ci++ {
		gxRow := gxs[ci*inT : (ci+1)*inT]
		for k := 0; k < kernel; k++ {
			row := dcol[j*ld : j*ld+outT]
			j++
			off := k*dilation - padL
			t0, t1 := tapRange(off, stride, inT, outT)
			if t1 < t0 {
				continue
			}
			if stride == 1 {
				dst := gxRow[t0+off : t1+off+1]
				src := row[t0 : t1+1]
				for i, v := range src {
					dst[i] += v
				}
			} else {
				src := t0*stride + off
				for t := t0; t <= t1; t++ {
					gxRow[src] += row[t]
					src += stride
				}
			}
		}
	}
}

// ForwardBatch runs the network over a batch and writes each sample's
// scalar output (the normalized HR) into out, which must have length
// x.N. Each result is independent of the window's batch-mates; see the
// package documentation for why.
func (n *Network) ForwardBatch(x *BatchTensor, out []float32) {
	if len(out) != x.N {
		panic(fmt.Sprintf("tcn: network %s batch output has %d slots, want %d", n.Topology, len(out), x.N))
	}
	cur := x
	for _, l := range n.Layers {
		cur = l.ForwardBatch(cur)
	}
	if cur.C*cur.T != 1 || cur.N != x.N {
		panic(fmt.Sprintf("tcn: network %s batch output is %d×%d×%d, want %d×1×1",
			n.Topology, cur.N, cur.C, cur.T, x.N))
	}
	copy(out, cur.Data)
}

// BackwardBatch propagates per-sample scalar output gradients through the
// stack, accumulating parameter gradients over the whole batch.
// ForwardBatch must have been called first on the same layer instances.
// Unlike the bitwise-pinned forward pass, the batched reductions sum the
// per-sample weight-gradient contributions in a different association than
// a plain per-window loop, so gradients may differ from it in the last
// bits (training tolerates this; see Fit).
func (n *Network) BackwardBatch(outGrad []float32) {
	grad := ensureBatchTensor(&n.outGrad, len(outGrad), 1, 1)
	copy(grad.Data, outGrad)
	cur := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		cur = n.Layers[i].BackwardBatch(cur)
		if cur == nil && i != 0 {
			panic(fmt.Sprintf("tcn: layer %s returned nil batch gradient mid-stack", n.Layers[i].Name()))
		}
	}
}
