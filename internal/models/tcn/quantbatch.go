package tcn

import (
	"fmt"

	"repro/internal/gemm"
)

// This file is the batched form of the int8 deployment path: the same
// im2col + GEMM lowering as the float batch kernels, but with int8
// operands, int32 accumulators and the per-output-channel rescale of the
// serial ops. Integer accumulation is exact (so the bias can be added
// after the GEMM rather than seeded before it), and the rescale applies
// the identical float expressions element-wise, so batched int8
// inference is bitwise identical to QuantNetwork.Forward run window by
// window — the property the record builder and the paper tables rely on
// for the deployed wearable path.

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

// quantizeBatchInto quantizes a float batch with quantizeTensorInto's
// per-element expression, through gemm's SIMD input row.
func quantizeBatchInto(slot **qBatchTensor, x *BatchTensor, scale float32) *qBatchTensor {
	q := ensureQBatchTensor(slot, x.N, x.C, x.T, scale)
	gemm.QuantizeRow(q.Data, x.Data, scale)
	return q
}

// rescaleRow applies the per-output-channel rescale of the serial kernel
// (gemm.Requantize with the optional fused ReLU) to one row of
// zero-seeded accumulators, adding the channel's bias on the way — the
// exact per-element expressions of qConv.forward, since int32 addition
// is associative. Shared by the per-sample and cross-sample batch paths.
func (l *qConv) rescaleRow(yr []int8, ar []int32, o int) {
	gemm.RescaleRow(yr, ar, l.bias[o], l.inScale*l.wScale[o]/l.outScale, reluFloor(l.relu))
}

// forwardBatch implements qOp for qConv: im2col packing, the int8 GEMM
// micro-kernel over zeroed int32 accumulators, then the
// per-output-channel bias and rescale of the serial kernel — per sample
// for large layers, or as one wide cross-sample GEMM (the same lowering
// and heuristic as the float path; integer accumulation is exact, so the
// result is identical either way).
func (l *qConv) forwardBatch(x *qBatchTensor) *qBatchTensor {
	outT := (x.T-1)/l.stride + 1
	y := ensureQBatchTensor(&l.outB, x.N, l.outC, outT, l.outScale)
	J := l.inC * l.kernel
	padL := l.padLeft()
	if crossSampleWorthIt(x.N, l.outC, outT) {
		wide := x.N * outT
		col := ensureSlice(&l.colBuf, J*wide)
		im2colWide(col, x.Data, x.N, l.inC, x.T, l.kernel, l.dilation, l.stride, padL, outT)
		acc := ensureSlice(&l.accBuf, l.outC*wide)
		clear(acc)
		gemm.S8(acc, l.weight, col, l.outC, J, wide)
		for n := 0; n < x.N; n++ {
			ys := y.Sample(n)
			for o := 0; o < l.outC; o++ {
				l.rescaleRow(ys[o*outT:(o+1)*outT], acc[o*wide+n*outT:o*wide+(n+1)*outT], o)
			}
		}
		return y
	}
	col := ensureSlice(&l.colBuf, J*outT)
	acc := ensureSlice(&l.accBuf, l.outC*outT)
	for n := 0; n < x.N; n++ {
		im2col(col, x.Sample(n), l.inC, x.T, l.kernel, l.dilation, l.stride, padL, outT)
		clear(acc)
		gemm.S8(acc, l.weight, col, l.outC, J, outT)
		ys := y.Sample(n)
		for o := 0; o < l.outC; o++ {
			l.rescaleRow(ys[o*outT:(o+1)*outT], acc[o*outT:(o+1)*outT], o)
		}
	}
	return y
}

// forwardBatch implements qOp for qDense: the whole batch is one int8 GEMM
// against the weight rows (accumulators bias-seeded), followed by the
// serial rescale — into float for the final head, re-quantized otherwise.
func (l *qDense) forwardBatch(x *qBatchTensor) *qBatchTensor {
	N := x.N
	acc := ensureSlice(&l.accBuf, N*l.out)
	for n := 0; n < N; n++ {
		copy(acc[n*l.out:(n+1)*l.out], l.bias)
	}
	gemm.S8NT(acc, x.Data, l.weight, N, l.in, l.out)
	y := ensureQBatchTensor(&l.outBB, N, l.out, 1, l.outScale)
	var head []float32
	if l.last {
		head = ensureSlice(&l.lastOutB, N*l.out)
	}
	for n := 0; n < N; n++ {
		row := n * l.out
		for o, a := range acc[row : row+l.out] {
			if l.last {
				head[row+o] = l.dequant(a, o)
			} else {
				y.Data[row+o] = l.requant(a, o)
			}
		}
	}
	return y
}

// ForwardBatch runs batched int8 inference, writing each sample's scalar
// float output into out (length x.N). Results are bitwise identical to
// Forward per window.
func (q *QuantNetwork) ForwardBatch(x *BatchTensor, out []float32) {
	if len(out) != x.N {
		panic(fmt.Sprintf("tcn: quantized %s batch output has %d slots, want %d", q.Topology, len(out), x.N))
	}
	normed := q.norm.ForwardBatch(x)
	cur := quantizeBatchInto(&q.qinB, normed, q.inScale)
	var lastDense *qDense
	for _, op := range q.ops {
		cur = op.forwardBatch(cur)
		if d, ok := op.(*qDense); ok && d.last {
			lastDense = d
		}
	}
	if lastDense == nil || len(lastDense.lastOutB) != x.N {
		panic("tcn: quantized network lacks a scalar head")
	}
	copy(out, lastDense.lastOutB)
}
