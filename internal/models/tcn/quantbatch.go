package tcn

import (
	"fmt"

	"repro/internal/gemm"
)

// This file is the int8 deployment path: the same im2col + GEMM lowering
// as the float batch kernels, but with int8 operands, int32 accumulators
// and a per-output-channel rescale. It is the only int8 inference path;
// a single window runs as a batch of one. Integer accumulation is exact
// (so where the bias joins the int32 sum does not matter), and the
// rescale applies the scalar reference's float expressions
// element-wise, so every window's result is bitwise identical to the
// scalar reference kernels (quantref_test.go) run on it alone, whatever
// its batch-mates — the property the record builder, the serving engine
// and the paper tables rely on for the deployed wearable path.

// qBatchTensor is the batched int8 activation tensor, sample-major like
// BatchTensor: element (n, c, t) lives at Data[(n*C+c)*T+t].
type qBatchTensor struct {
	N, C, T int
	Data    []int8
	Scale   float32
}

// Sample returns the contiguous C×T int8 block of sample n.
func (x *qBatchTensor) Sample(n int) []int8 {
	sz := x.C * x.T
	return x.Data[n*sz : (n+1)*sz]
}

// ensureQBatchTensor mirrors ensureBatchTensor for int8 data
// (capacity-based reuse, contents not cleared).
func ensureQBatchTensor(slot **qBatchTensor, n, c, t int, scale float32) *qBatchTensor {
	need := n * c * t
	q := *slot
	if q == nil {
		q = &qBatchTensor{Data: make([]int8, need)}
		*slot = q
	} else if cap(q.Data) < need {
		q.Data = make([]int8, need)
	} else {
		q.Data = q.Data[:need]
	}
	q.N, q.C, q.T = n, c, t
	q.Scale = scale
	return q
}

// quantizeBatchInto quantizes a float batch element-wise with
// gemm.Requantize(v/scale, −127), through gemm's SIMD input row.
func quantizeBatchInto(slot **qBatchTensor, x *BatchTensor, scale float32) *qBatchTensor {
	q := ensureQBatchTensor(slot, x.N, x.C, x.T, scale)
	gemm.QuantizeRow(q.Data, x.Data, scale)
	return q
}

// qScratch is the batched int8 path's working memory. The ops of one
// network run one after another and none keeps its scratch past its own
// forwardBatch, so they share one set: the largest layer sizes it, not
// the sum of them.
type qScratch struct {
	pad     []int8       // zero-padded input rows (qConv)
	tapOffs []int        // im2col row offsets into pad (qConv)
	im2col  gemm.Panels  // im2col panels (qConv)
	in      gemm.PackedA // packed inputs (qDense)
	acc     []int32      // int32 accumulators (qDense)
}

// forwardBatch implements qOp for qConv. Each sample's im2col is written
// straight into the B panels of the product (panelIm2col), and one
// gemm.S8Rescale against the pre-packed weights computes the product
// and writes it requantized — per-output-channel bias, multiplier and
// fused ReLU — into each sample's output rows. Large layers run sample
// by sample; small ones put the whole batch's panels side by side in one
// product (the cross-sample heuristic of the float path). Integer
// accumulation is exact and the rescale is the scalar reference's
// element expression, so the result is the scalar reference's either
// way.
func (l *qConv) forwardBatch(x *qBatchTensor, s *qScratch) *qBatchTensor {
	outT := (x.T-1)/l.stride + 1
	y := ensureQBatchTensor(&l.outB, x.N, l.outC, outT, l.outScale)
	J := l.inC * l.kernel
	np := (outT + gemm.PanelCols - 1) / gemm.PanelCols
	group := 1
	if crossSampleWorthIt(x.N, l.outC, outT) {
		group = x.N
	}
	s.im2col.Resize(J, group*np)
	rowLen := l.tapGeometry(s, x.T, np)
	lo := reluFloor(l.relu)
	for n0 := 0; n0 < x.N; n0 += group {
		for g := 0; g < group; g++ {
			l.panelIm2col(s, g*np, x.Sample(n0+g), x.T, np, rowLen)
		}
		gemm.S8Rescale(y.Data[n0*l.outC*outT:], outT, outT, l.packed, &s.im2col, l.bias, l.mult, lo)
	}
	return y
}

// tapGeometry lays out the padded input panelIm2col builds for an input
// of length inT and np output panels, returning its row length, and
// fills s.tapOffs with where each tap's row of the im2col matrix starts
// in it.
//
// The padded input holds channel ci's row x[ci] behind padL zeros and
// followed by zeros. Tap (ci, k) reads x[ci][t·stride + k·dilation −
// padL] at output t: element k·dilation + t·stride of the padded row, so
// each tap row is a strided run that reads zero wherever the tap falls
// outside the input. Output columns past outT read zeros or real input,
// and are never stored.
func (l *qConv) tapGeometry(s *qScratch, inT, np int) (rowLen int) {
	padL := l.padLeft()
	rowLen = padL + max(inT, (l.kernel-1)*l.dilation-padL+l.stride*np*gemm.PanelCols)
	offs := ensureSlice(&s.tapOffs, l.inC*l.kernel)
	for ci := 0; ci < l.inC; ci++ {
		for k := 0; k < l.kernel; k++ {
			offs[ci*l.kernel+k] = ci*rowLen + k*l.dilation
		}
	}
	return rowLen
}

// panelIm2col writes the im2col matrix of one C×T sample xs — tap rows
// (ci, k) in ascending order, the scalar reference's accumulation order
// — as panels [p0, p0+np) of s.im2col: it copies xs into the padded rows
// of tapGeometry and lets gemm.PackRows gather each tap's run.
func (l *qConv) panelIm2col(s *qScratch, p0 int, xs []int8, inT, np, rowLen int) {
	pad := ensureSlice(&s.pad, l.inC*rowLen)
	clear(pad)
	padL := l.padLeft()
	for ci := 0; ci < l.inC; ci++ {
		copy(pad[ci*rowLen+padL:], xs[ci*inT:(ci+1)*inT])
	}
	gemm.PackRows(&s.im2col, p0, pad, s.tapOffs, l.stride, np)
}

// denseCols is the accumulator row length of a dense layer's batched
// product: out rounded up to whole gemm panels.
func denseCols(out int) int {
	return (out + gemm.PanelCols - 1) / gemm.PanelCols * gemm.PanelCols
}

// forwardBatch implements qOp for qDense: the whole batch is one panel
// product of the packed activations against the pre-packed weight
// panels (accumulators bias-seeded; the zero columns past out are never
// read), followed by the per-unit rescale — into float for the final
// head, re-quantized otherwise.
func (l *qDense) forwardBatch(x *qBatchTensor, s *qScratch) *qBatchTensor {
	N := x.N
	ldc := denseCols(l.out)
	acc := ensureSlice(&s.acc, N*ldc)
	for n := 0; n < N; n++ {
		copy(acc[n*ldc:n*ldc+l.out], l.bias)
	}
	gemm.PackA(&s.in, x.Data, N, l.in)
	gemm.S8Panels(acc, ldc, &s.in, l.panels)
	y := ensureQBatchTensor(&l.outBB, N, l.out, 1, l.outScale)
	var head []float32
	if l.last {
		head = ensureSlice(&l.lastOutB, N*l.out)
	}
	for n := 0; n < N; n++ {
		row := n * l.out
		for o, a := range acc[n*ldc : n*ldc+l.out] {
			if l.last {
				head[row+o] = l.dequant(a, o)
			} else {
				y.Data[row+o] = l.requant(a, o)
			}
		}
	}
	return y
}

// ForwardBatch runs int8 inference, writing each sample's scalar float
// output into out (length x.N). Each result depends only on its own
// sample: N = 1 gives the same bits as the sample's slot in any batch.
func (q *QuantNetwork) ForwardBatch(x *BatchTensor, out []float32) {
	if len(out) != x.N {
		panic(fmt.Sprintf("tcn: quantized %s batch output has %d slots, want %d", q.Topology, len(out), x.N))
	}
	normed := q.norm.ForwardBatch(x)
	cur := quantizeBatchInto(&q.qinB, normed, q.inScale)
	var lastDense *qDense
	for _, op := range q.ops {
		cur = op.forwardBatch(cur, &q.scratch)
		if d, ok := op.(*qDense); ok && d.last {
			lastDense = d
		}
	}
	if lastDense == nil || len(lastDense.lastOutB) != x.N {
		panic("tcn: quantized network lacks a scalar head")
	}
	copy(out, lastDense.lastOutB)
}
