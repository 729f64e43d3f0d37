package tcn

import "repro/internal/gemm"

// This file holds the scalar int8 kernels: one window, plain loops, the
// per-element accumulation order and rescale expressions that the
// deployment path (quantbatch.go) must reproduce bitwise. Only the tests
// run them, as the reference the batch pins compare against; each call
// allocates its outputs.

// qTensor is an int8 activation tensor with its dequantization scale.
type qTensor struct {
	C, T  int
	Data  []int8
	Scale float32 // real value = Data * Scale
}

func newQTensor(c, t int, scale float32) *qTensor {
	return &qTensor{C: c, T: t, Data: make([]int8, c*t), Scale: scale}
}

func quantizeTensor(x *Tensor, scale float32) *qTensor {
	q := newQTensor(x.C, x.T, scale)
	for i, v := range x.Data {
		q.Data[i] = gemm.Requantize(v/scale, -127)
	}
	return q
}

// forward is the scalar reference of qConv.forwardBatch for one sample.
func (l *qConv) forward(x *qTensor) *qTensor {
	outT := (x.T-1)/l.stride + 1
	y := newQTensor(l.outC, outT, l.outScale)
	padL := l.padLeft()
	lo := reluFloor(l.relu)
	for o := 0; o < l.outC; o++ {
		mult := l.inScale * l.wScale[o] / l.outScale
		for t := 0; t < outT; t++ {
			acc := l.bias[o]
			for ci := 0; ci < l.inC; ci++ {
				wBase := (o*l.inC + ci) * l.kernel
				xBase := ci * x.T
				for k := 0; k < l.kernel; k++ {
					src := t*l.stride + k*l.dilation - padL
					if src >= 0 && src < x.T {
						acc += int32(l.weight[wBase+k]) * int32(x.Data[xBase+src])
					}
				}
			}
			y.Data[o*outT+t] = gemm.Requantize(float32(acc)*mult, lo)
		}
	}
	return y
}

// forward is the scalar reference of qDense.forwardBatch for one sample.
// The final head dequantizes into head (length l.out) instead of y.
func (l *qDense) forward(x *qTensor, head []float32) *qTensor {
	y := newQTensor(l.out, 1, l.outScale)
	for o := 0; o < l.out; o++ {
		acc := l.bias[o]
		row := l.weight[o*l.in : (o+1)*l.in]
		for i, xv := range x.Data {
			acc += int32(row[i]) * int32(xv)
		}
		if l.last {
			head[o] = l.dequant(acc, o)
		} else {
			y.Data[o] = l.requant(acc, o)
		}
	}
	return y
}

// Forward runs the scalar int8 reference on one window and returns the
// scalar float output.
func (q *QuantNetwork) Forward(x *Tensor) float32 {
	normed := refInputNorm(x)
	cur := quantizeTensor(normed, q.inScale)
	var head []float32
	for _, op := range q.ops {
		switch v := op.(type) {
		case *qConv:
			cur = v.forward(cur)
		case *qDense:
			if v.last {
				head = make([]float32, v.out)
			}
			cur = v.forward(cur, head)
		}
	}
	if len(head) != 1 {
		panic("tcn: quantized network lacks a scalar head")
	}
	return head[0]
}
