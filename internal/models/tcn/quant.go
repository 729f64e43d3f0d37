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

// qOp is one stage of the quantized pipeline (see quantbatch.go). Its
// per-window scalar reference, forward, lives with the tests that pin
// forwardBatch bitwise against it.
type qOp interface {
	forwardBatch(x *qBatchTensor, s *qScratch) *qBatchTensor
	macs() int64
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

	// mult is each output channel's rescale multiplier,
	// inScale*wScale[o]/outScale in float32, set with outScale by
	// setOutScale.
	mult []float32

	// packed is weight as the A operand of gemm.S8Rescale, built once by
	// Quantize and shared by every worker clone.
	packed *gemm.PackedA

	// Batched-path output arena (see quantbatch.go).
	outB *qBatchTensor
}

// setOutScale sets the output scale and recomputes the per-channel
// multipliers from it.
func (l *qConv) setOutScale(s float32) {
	l.outScale = s
	l.mult = make([]float32, l.outC)
	for o := range l.mult {
		l.mult[o] = l.inScale * l.wScale[o] / l.outScale
	}
}

func (l *qConv) padLeft() int {
	total := (l.kernel - 1) * l.dilation
	return total - total/2
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

	// panels is weight as gemm.PackBT panels (columns past out zero),
	// built once by Quantize and shared by every worker clone.
	panels *gemm.Panels

	// Batched-path output arenas (see quantbatch.go).
	outBB    *qBatchTensor
	lastOutB []float32
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
	qinB     *qBatchTensor // reused quantized-input batch
	scratch  qScratch      // scratch every op shares
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
			cp.outB = nil
			c.ops[i] = &cp
		case *qDense:
			cp := *v
			cp.outBB, cp.lastOutB = nil, nil
			c.ops[i] = &cp
		default:
			c.ops[i] = op
		}
	}
	return c
}

// Quantize converts a trained float network into int8 form, calibrating
// activation scales on the given tensors (typically a few dozen to a few
// hundred windows from the validation split; they run in batches of at
// most calibChunk, so memory does not grow with their number). The
// affine layers are folded first.
func Quantize(n *Network, calib []*Tensor) (*QuantNetwork, error) {
	if len(calib) == 0 {
		return nil, fmt.Errorf("tcn: quantization requires calibration data")
	}
	folded := FoldAffine(n)
	maxAbs, err := calibrate(folded, calib)
	if err != nil {
		return nil, err
	}
	return quantizeFolded(n, folded, maxAbs)
}

// quantizeFolded builds the int8 network from the folded float network
// and the max-abs activation after each of its layers.
func quantizeFolded(n, folded *Network, maxAbs []float32) (*QuantNetwork, error) {
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
			// A fresh layer: the folded one holds the calibration batch.
			q.norm = v.CloneForWorker().(*InputNorm)
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
				prev.setOutScale(s)
			case *qDense:
				prev.relu = true
				prev.outScale = s
			}
			inScale = s
		case *Conv1D:
			qc := quantizeConv(v, inScale, scaleOf(li), curT)
			q.ops = append(q.ops, qc)
			inScale = qc.outScale
			curT = (curT-1)/v.Stride + 1
		case *Flatten:
			// No-op on the flat int8 buffer; shapes are implicit.
		case *Dense:
			denseSeen++
			qd := quantizeDense(v, inScale, scaleOf(li))
			qd.last = denseSeen == totalDense
			q.ops = append(q.ops, qd)
			inScale = qd.outScale
		default:
			return nil, fmt.Errorf("tcn: cannot quantize layer %T", l)
		}
	}
	return q, nil
}

// calibChunk bounds how many calibration windows run through the network
// at once, so the batch buffers of Quantize stay the same size for
// any number of calibration windows.
const calibChunk = 64

// calibrate returns the max-abs activation after each layer of the folded
// network over the calibration windows. The windows run through every
// layer in batches of at most calibChunk: a window's activations do not
// depend on its batch-mates, and a maximum does not depend on the order
// it is taken in.
func calibrate(folded *Network, calib []*Tensor) ([]float32, error) {
	if len(folded.Layers) == 0 {
		return nil, fmt.Errorf("tcn: cannot quantize an empty network")
	}
	if _, ok := folded.Layers[0].(*InputNorm); !ok {
		return nil, fmt.Errorf("tcn: quantization expects InputNorm first, got %T", folded.Layers[0])
	}
	c, t := calib[0].C, calib[0].T
	for i, x := range calib {
		if x.C != c || x.T != t {
			return nil, fmt.Errorf("tcn: calibration window %d is %d×%d, want %d×%d", i, x.C, x.T, c, t)
		}
	}
	maxAbs := make([]float32, len(folded.Layers)+1)
	xb := NewBatchTensor(min(len(calib), calibChunk), c, t)
	for lo := 0; lo < len(calib); lo += calibChunk {
		chunk := calib[lo:min(lo+calibChunk, len(calib))]
		xb.N, xb.Data = len(chunk), xb.Data[:len(chunk)*c*t]
		for i, x := range chunk {
			copy(xb.Sample(i), x.Data)
		}
		cur := xb
		for li, l := range folded.Layers {
			cur = l.ForwardBatch(cur)
			m := maxAbs[li]
			for _, v := range cur.Data {
				if v < 0 {
					v = -v
				}
				if v > m {
					m = v
				}
			}
			maxAbs[li] = m
		}
	}
	// The dense layers' GEMMs packed Bᵀ panels as large as their weights
	// (TimePPG-Big's first is 2048×84), which the int8 network never
	// uses: drop them rather than keep them for the process's lifetime.
	gemm.ReleaseScratch()
	return maxAbs, nil
}

// quantizeWeights quantizes rows of w (rows × cols, one per output
// channel) symmetrically per row into q, returning the row scales.
func quantizeWeights(q []int8, w []float32, rows, cols int) []float32 {
	scales := make([]float32, rows)
	for o := 0; o < rows; o++ {
		var m float32
		for _, a := range w[o*cols : (o+1)*cols] {
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
		scales[o] = s
		for j := o * cols; j < (o+1)*cols; j++ {
			q[j] = gemm.Requantize(w[j]/s, -127)
		}
	}
	return scales
}

// quantizeBias quantizes float biases at inScale·wScale[o].
func quantizeBias(b []float32, inScale float32, wScale []float32) []int32 {
	q := make([]int32, len(b))
	for o, v := range b {
		q[o] = int32(math.Round(float64(v / (inScale * wScale[o]))))
	}
	return q
}

// quantizeConv builds the int8 form of a folded convolution that reads
// activations at inScale and length inT, with its weights pre-packed for
// the batched path.
func quantizeConv(v *Conv1D, inScale, outScale float32, inT int) *qConv {
	J := v.InC * v.Kernel
	qc := &qConv{
		inC: v.InC, outC: v.OutC, kernel: v.Kernel,
		dilation: v.Dilation, stride: v.Stride,
		weight:  make([]int8, len(v.Weight.W)),
		inScale: inScale,
		inT:     inT,
		packed:  new(gemm.PackedA),
	}
	qc.wScale = quantizeWeights(qc.weight, v.Weight.W, v.OutC, J)
	qc.setOutScale(outScale)
	qc.bias = quantizeBias(v.Bias.W, inScale, qc.wScale)
	gemm.PackA(qc.packed, qc.weight, v.OutC, J)
	return qc
}

// quantizeDense is quantizeConv for a dense layer, whose weight rows
// pack as the panels of the batched product's B operand.
func quantizeDense(v *Dense, inScale, outScale float32) *qDense {
	qd := &qDense{
		in: v.In, out: v.Out,
		weight:   make([]int8, len(v.Weight.W)),
		inScale:  inScale,
		outScale: outScale,
		panels:   new(gemm.Panels),
	}
	qd.wScale = quantizeWeights(qd.weight, v.Weight.W, v.Out, v.In)
	qd.bias = quantizeBias(v.Bias.W, inScale, qd.wScale)
	gemm.PackBT(qd.panels, qd.weight, v.Out, v.In)
	return qd
}

// MACs returns the int8 multiply-accumulate count per inference.
func (q *QuantNetwork) MACs() int64 {
	var total int64
	for _, op := range q.ops {
		total += op.macs()
	}
	return total
}
