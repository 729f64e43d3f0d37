package tcn

import (
	"fmt"
	"math"

	"repro/internal/gemm"
)

// This file implements post-training int8 quantization, standing in for
// the paper's quantization-aware training + X-CUBE-AI/TFLite deployment:
// per-output-channel symmetric weights, per-tensor symmetric activations,
// int32 accumulation and float rescaling between layers (the same numeric
// scheme CMSIS-NN-class kernels use, with a float multiplier in place of
// the fixed-point one for clarity).

// FoldAffine returns a copy of the network with every ChannelAffine that
// follows a Conv1D folded into the convolution's weights and bias — the
// standard batch-norm folding step that precedes deployment. The two
// networks compute identical functions.
func FoldAffine(n *Network) *Network {
	out := &Network{Topology: n.Topology, InC: n.InC, InT: n.InT}
	for i := 0; i < len(n.Layers); i++ {
		conv, isConv := n.Layers[i].(*Conv1D)
		if isConv && i+1 < len(n.Layers) {
			if aff, isAff := n.Layers[i+1].(*ChannelAffine); isAff {
				folded := NewConv1D(conv.Name(), conv.InC, conv.OutC, conv.Kernel, conv.Dilation, conv.Stride)
				for o := 0; o < conv.OutC; o++ {
					g := aff.Gamma.W[o]
					base := o * conv.InC * conv.Kernel
					for j := 0; j < conv.InC*conv.Kernel; j++ {
						folded.Weight.W[base+j] = conv.Weight.W[base+j] * g
					}
					folded.Bias.W[o] = conv.Bias.W[o]*g + aff.Beta.W[o]
				}
				out.Layers = append(out.Layers, folded)
				i++ // skip the affine
				continue
			}
		}
		out.Layers = append(out.Layers, cloneLayerDeep(n.Layers[i]))
	}
	return out
}

// cloneLayerDeep copies a layer including its weights (unlike
// CloneForWorker, which shares them).
func cloneLayerDeep(l Layer) Layer {
	switch v := l.(type) {
	case *Conv1D:
		c := NewConv1D(v.Name(), v.InC, v.OutC, v.Kernel, v.Dilation, v.Stride)
		copy(c.Weight.W, v.Weight.W)
		copy(c.Bias.W, v.Bias.W)
		return c
	case *Dense:
		d := NewDense(v.Name(), v.In, v.Out)
		copy(d.Weight.W, v.Weight.W)
		copy(d.Bias.W, v.Bias.W)
		return d
	case *ChannelAffine:
		a := NewChannelAffine(v.Name(), len(v.Gamma.W))
		copy(a.Gamma.W, v.Gamma.W)
		copy(a.Beta.W, v.Beta.W)
		return a
	default:
		return l.CloneForWorker()
	}
}

// qOp is one stage of the quantized pipeline. forwardBatch (see
// quantbatch.go) must be bitwise identical to forward per sample.
type qOp interface {
	forward(x *qTensor) *qTensor
	forwardBatch(x *qBatchTensor) *qBatchTensor
	macs() int64
}

// qTensor is an int8 activation tensor with its dequantization scale.
type qTensor struct {
	C, T  int
	Data  []int8
	Scale float32 // real value = Data * Scale
}

// ensureQTensor is the int8 twin of ensureTensor: ops keep their output
// tensors in slots so steady-state quantized inference does not allocate.
func ensureQTensor(slot **qTensor, c, t int, scale float32) *qTensor {
	q := *slot
	if q == nil || q.C != c || q.T != t {
		q = &qTensor{C: c, T: t, Data: make([]int8, c*t)}
		*slot = q
	}
	q.Scale = scale
	return q
}

func quantizeTensorInto(slot **qTensor, x *Tensor, scale float32) *qTensor {
	q := ensureQTensor(slot, x.C, x.T, scale)
	for i, v := range x.Data {
		q.Data[i] = gemm.Requantize(v/scale, -127)
	}
	return q
}

// reluFloor is gemm.Requantize's lower clamp bound for an op: 0 under a
// fused ReLU, −127 otherwise.
func reluFloor(relu bool) float64 {
	if relu {
		return 0
	}
	return -127
}

// qConv is an int8 convolution (or, with T==1 semantics preserved, the same
// geometry as its float counterpart) with fused optional ReLU.
type qConv struct {
	inC, outC, kernel, dilation, stride int
	weight                              []int8    // [outC][inC][kernel]
	wScale                              []float32 // per output channel
	bias                                []int32   // quantized at inScale*wScale[o]
	inScale, outScale                   float32
	relu                                bool
	inT                                 int
	out                                 *qTensor

	// Batched-path arenas (see quantbatch.go).
	outB   *qBatchTensor
	colBuf []int8
	accBuf []int32
}

func (l *qConv) padLeft() int {
	total := (l.kernel - 1) * l.dilation
	return total - total/2
}

func (l *qConv) forward(x *qTensor) *qTensor {
	outT := (x.T-1)/l.stride + 1
	y := ensureQTensor(&l.out, l.outC, outT, l.outScale)
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

func (l *qConv) macs() int64 {
	outT := (l.inT-1)/l.stride + 1
	return int64(l.outC) * int64(l.inC) * int64(l.kernel) * int64(outT)
}

// qDense is the int8 fully connected layer; the final one dequantizes to
// float via outScale on a single element.
type qDense struct {
	in, out  int
	weight   []int8
	wScale   []float32
	bias     []int32
	inScale  float32
	outScale float32
	relu     bool
	last     bool
	lastOut  []float32
	outBuf   *qTensor

	// Batched-path arenas (see quantbatch.go).
	outBB    *qBatchTensor
	accBuf   []int32
	lastOutB []float32
}

func (l *qDense) forward(x *qTensor) *qTensor {
	if l.last && l.lastOut == nil {
		l.lastOut = make([]float32, l.out)
	}
	y := ensureQTensor(&l.outBuf, l.out, 1, l.outScale)
	for o := 0; o < l.out; o++ {
		acc := l.bias[o]
		row := l.weight[o*l.in : (o+1)*l.in]
		for i, xv := range x.Data {
			acc += int32(row[i]) * int32(xv)
		}
		if l.last {
			l.lastOut[o] = l.dequant(acc, o)
		} else {
			y.Data[o] = l.requant(acc, o)
		}
	}
	return y
}

// dequant is the final head's float output for accumulator acc of unit o.
func (l *qDense) dequant(acc int32, o int) float32 {
	realV := float32(acc) * l.inScale * l.wScale[o]
	if l.relu && realV < 0 {
		realV = 0
	}
	return realV
}

// requant re-quantizes accumulator acc of unit o to the next layer's int8
// scale. A fused ReLU clamps inside gemm.Requantize: outScale > 0, so the
// quotient is negative exactly when the dequantized value is.
func (l *qDense) requant(acc int32, o int) int8 {
	return gemm.Requantize(float32(acc)*l.inScale*l.wScale[o]/l.outScale, reluFloor(l.relu))
}

func (l *qDense) macs() int64 { return int64(l.in) * int64(l.out) }

// QuantNetwork is the int8 deployment form of a trained network. Like the
// float Network, its ops reuse output buffers between calls, so one
// instance must not be shared between goroutines; use CloneForWorker.
type QuantNetwork struct {
	Topology string
	InC, InT int
	norm     *InputNorm
	inScale  float32
	ops      []qOp
	qin      *qTensor      // reused quantized-input buffer
	qinB     *qBatchTensor // batched twin of qin
}

// CloneForWorker returns a copy sharing the immutable int8 weights and
// scales but owning private activation buffers, for data-parallel
// inference.
func (q *QuantNetwork) CloneForWorker() *QuantNetwork {
	c := &QuantNetwork{Topology: q.Topology, InC: q.InC, InT: q.InT, inScale: q.inScale}
	c.norm = q.norm.CloneForWorker().(*InputNorm)
	c.ops = make([]qOp, len(q.ops))
	for i, op := range q.ops {
		switch v := op.(type) {
		case *qConv:
			cp := *v
			cp.out = nil
			cp.outB, cp.colBuf, cp.accBuf = nil, nil, nil
			c.ops[i] = &cp
		case *qDense:
			cp := *v
			cp.outBuf = nil
			cp.lastOut = nil
			cp.outBB, cp.accBuf, cp.lastOutB = nil, nil, nil
			c.ops[i] = &cp
		default:
			c.ops[i] = op
		}
	}
	return c
}

// Quantize converts a trained float network into int8 form, calibrating
// activation scales on the given tensors (typically a few hundred windows
// from the validation split). The affine layers are folded first.
func Quantize(n *Network, calib []*Tensor) (*QuantNetwork, error) {
	if len(calib) == 0 {
		return nil, fmt.Errorf("tcn: quantization requires calibration data")
	}
	folded := FoldAffine(n)

	// Pass 1: record per-stage activation max-abs on the float net.
	maxAbs := make([]float32, len(folded.Layers)+1)
	for _, x := range calib {
		cur := x
		for li, l := range folded.Layers {
			if li == 0 {
				if _, ok := l.(*InputNorm); !ok {
					return nil, fmt.Errorf("tcn: quantization expects InputNorm first, got %T", l)
				}
			}
			cur = l.Forward(cur)
			for _, v := range cur.Data {
				a := v
				if a < 0 {
					a = -a
				}
				if a > maxAbs[li] {
					maxAbs[li] = a
				}
			}
		}
	}
	scaleOf := func(li int) float32 {
		m := maxAbs[li]
		if m == 0 {
			m = 1
		}
		return m / 127
	}

	q := &QuantNetwork{Topology: n.Topology, InC: n.InC, InT: n.InT}
	var inScale float32
	denseSeen := 0
	totalDense := 0
	for _, l := range folded.Layers {
		if _, ok := l.(*Dense); ok {
			totalDense++
		}
	}
	curT := n.InT
	for li, l := range folded.Layers {
		switch v := l.(type) {
		case *InputNorm:
			q.norm = v
			inScale = scaleOf(li) // scale of the normalized input
			q.inScale = inScale
		case *ReLU:
			// Fuse into the preceding conv/dense and re-point both the
			// op's output scale and the running input scale at the
			// post-ReLU calibration (the clipped range quantizes finer).
			s := scaleOf(li)
			switch prev := q.ops[len(q.ops)-1].(type) {
			case *qConv:
				prev.relu = true
				prev.outScale = s
			case *qDense:
				prev.relu = true
				prev.outScale = s
			}
			inScale = s
		case *Conv1D:
			qc := &qConv{
				inC: v.InC, outC: v.OutC, kernel: v.Kernel,
				dilation: v.Dilation, stride: v.Stride,
				weight:   make([]int8, len(v.Weight.W)),
				wScale:   make([]float32, v.OutC),
				bias:     make([]int32, v.OutC),
				inScale:  inScale,
				outScale: scaleOf(li),
				inT:      curT,
			}
			perCh := v.InC * v.Kernel
			for o := 0; o < v.OutC; o++ {
				var m float32
				for j := 0; j < perCh; j++ {
					a := v.Weight.W[o*perCh+j]
					if a < 0 {
						a = -a
					}
					if a > m {
						m = a
					}
				}
				if m == 0 {
					m = 1
				}
				s := m / 127
				qc.wScale[o] = s
				for j := 0; j < perCh; j++ {
					qc.weight[o*perCh+j] = gemm.Requantize(v.Weight.W[o*perCh+j]/s, -127)
				}
				qc.bias[o] = int32(math.Round(float64(v.Bias.W[o] / (inScale * s))))
			}
			q.ops = append(q.ops, qc)
			inScale = qc.outScale
			curT = (curT-1)/v.Stride + 1
		case *Flatten:
			// No-op on the flat int8 buffer; shapes are implicit.
		case *Dense:
			denseSeen++
			qd := &qDense{
				in: v.In, out: v.Out,
				weight:   make([]int8, len(v.Weight.W)),
				wScale:   make([]float32, v.Out),
				bias:     make([]int32, v.Out),
				inScale:  inScale,
				outScale: scaleOf(li),
				last:     denseSeen == totalDense,
			}
			for o := 0; o < v.Out; o++ {
				var m float32
				for j := 0; j < v.In; j++ {
					a := v.Weight.W[o*v.In+j]
					if a < 0 {
						a = -a
					}
					if a > m {
						m = a
					}
				}
				if m == 0 {
					m = 1
				}
				s := m / 127
				qd.wScale[o] = s
				for j := 0; j < v.In; j++ {
					qd.weight[o*v.In+j] = gemm.Requantize(v.Weight.W[o*v.In+j]/s, -127)
				}
				qd.bias[o] = int32(math.Round(float64(v.Bias.W[o] / (inScale * s))))
			}
			q.ops = append(q.ops, qd)
			inScale = qd.outScale
		default:
			return nil, fmt.Errorf("tcn: cannot quantize layer %T", l)
		}
	}
	return q, nil
}

// Forward runs int8 inference and returns the scalar float output.
func (q *QuantNetwork) Forward(x *Tensor) float32 {
	normed := q.norm.Forward(x)
	cur := quantizeTensorInto(&q.qin, normed, q.inScale)
	var lastDense *qDense
	for _, op := range q.ops {
		cur = op.forward(cur)
		if d, ok := op.(*qDense); ok && d.last {
			lastDense = d
		}
	}
	if lastDense == nil || len(lastDense.lastOut) != 1 {
		panic("tcn: quantized network lacks a scalar head")
	}
	return lastDense.lastOut[0]
}

// MACs returns the int8 multiply-accumulate count per inference.
func (q *QuantNetwork) MACs() int64 {
	var total int64
	for _, op := range q.ops {
		total += op.macs()
	}
	return total
}
