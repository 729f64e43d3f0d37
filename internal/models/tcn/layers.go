package tcn

import (
	"fmt"
	"math"

	"repro/internal/gemm"
)

// Layer is one differentiable stage of a network. Forward caches whatever
// Backward needs; Backward accumulates parameter gradients and returns the
// input gradient (nil is allowed for the first layer of a network).
//
// Every layer also implements the batched pair: ForwardBatch/BackwardBatch
// run the same computation over an (N, C, T) batch, with ForwardBatch
// bitwise identical to Forward applied sample by sample (the GEMM-lowered
// layers keep the serial accumulation order; see internal/gemm). The
// scalar and batched paths use separate activation arenas, so they may be
// interleaved on one instance — but an instance is still single-goroutine.
type Layer interface {
	Name() string
	Forward(x *Tensor) *Tensor
	Backward(grad *Tensor) *Tensor
	ForwardBatch(x *BatchTensor) *BatchTensor
	BackwardBatch(grad *BatchTensor) *BatchTensor
	Params() []*Param
	// CloneForWorker returns a copy sharing weights but owning private
	// gradient buffers and activation caches, for data-parallel training.
	CloneForWorker() Layer
	OutShape(inC, inT int) (int, int)
	MACs(inC, inT int) int64
}

// ReLU is the rectified linear activation.
type ReLU struct {
	name string
	x    *Tensor
	y    *Tensor
	gx   *Tensor

	xb      *BatchTensor
	yb, gxb *BatchTensor
}

// NewReLU returns a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// CloneForWorker implements Layer.
func (l *ReLU) CloneForWorker() Layer { return &ReLU{name: l.name} }

// OutShape implements Layer.
func (l *ReLU) OutShape(c, t int) (int, int) { return c, t }

// MACs implements Layer.
func (l *ReLU) MACs(c, t int) int64 { return 0 }

// Forward implements Layer.
func (l *ReLU) Forward(x *Tensor) *Tensor {
	l.x = x
	y := ensureTensor(&l.y, x.C, x.T)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = 0
		}
	}
	return y
}

// Backward implements Layer.
func (l *ReLU) Backward(grad *Tensor) *Tensor {
	gx := ensureTensor(&l.gx, grad.C, grad.T)
	for i, v := range l.x.Data {
		if v > 0 {
			gx.Data[i] = grad.Data[i]
		} else {
			gx.Data[i] = 0
		}
	}
	return gx
}

// ForwardBatch implements Layer.
func (l *ReLU) ForwardBatch(x *BatchTensor) *BatchTensor {
	l.xb = x
	y := ensureBatchTensor(&l.yb, x.N, x.C, x.T)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = 0
		}
	}
	return y
}

// BackwardBatch implements Layer.
func (l *ReLU) BackwardBatch(grad *BatchTensor) *BatchTensor {
	gx := ensureBatchTensor(&l.gxb, grad.N, grad.C, grad.T)
	for i, v := range l.xb.Data {
		if v > 0 {
			gx.Data[i] = grad.Data[i]
		} else {
			gx.Data[i] = 0
		}
	}
	return gx
}

// ChannelAffine applies a learned per-channel scale and shift. It stands in
// for the paper's batch-normalization layers with their statistics folded
// into the affine transform (the standard deployment-time form).
type ChannelAffine struct {
	Gamma *Param
	Beta  *Param
	x     *Tensor
	y     *Tensor
	gx    *Tensor

	xb      *BatchTensor
	yb, gxb *BatchTensor
}

// NewChannelAffine returns an affine layer over c channels, initialized to
// identity.
func NewChannelAffine(name string, c int) *ChannelAffine {
	l := &ChannelAffine{Gamma: NewParam(name+".g", c), Beta: NewParam(name+".b", c)}
	for i := range l.Gamma.W {
		l.Gamma.W[i] = 1
	}
	return l
}

// Name implements Layer.
func (l *ChannelAffine) Name() string { return l.Gamma.Name[:len(l.Gamma.Name)-2] }

// Params implements Layer.
func (l *ChannelAffine) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// CloneForWorker implements Layer.
func (l *ChannelAffine) CloneForWorker() Layer {
	return &ChannelAffine{Gamma: l.Gamma.shadow(), Beta: l.Beta.shadow()}
}

// OutShape implements Layer.
func (l *ChannelAffine) OutShape(c, t int) (int, int) { return c, t }

// MACs implements Layer.
func (l *ChannelAffine) MACs(c, t int) int64 { return int64(c) * int64(t) }

// Forward implements Layer.
func (l *ChannelAffine) Forward(x *Tensor) *Tensor {
	l.x = x
	y := ensureTensor(&l.y, x.C, x.T)
	for c := 0; c < x.C; c++ {
		g, b := l.Gamma.W[c], l.Beta.W[c]
		xr, yr := x.Row(c), y.Row(c)
		for t := range xr {
			yr[t] = g*xr[t] + b
		}
	}
	return y
}

// Backward implements Layer.
func (l *ChannelAffine) Backward(grad *Tensor) *Tensor {
	gx := ensureTensor(&l.gx, grad.C, grad.T)
	for c := 0; c < grad.C; c++ {
		var gg, gb float32
		xr, gr, gxr := l.x.Row(c), grad.Row(c), gx.Row(c)
		g := l.Gamma.W[c]
		for t := range gr {
			gg += gr[t] * xr[t]
			gb += gr[t]
			gxr[t] = gr[t] * g
		}
		l.Gamma.G[c] += gg
		l.Beta.G[c] += gb
	}
	return gx
}

// ForwardBatch implements Layer.
func (l *ChannelAffine) ForwardBatch(x *BatchTensor) *BatchTensor {
	l.xb = x
	y := ensureBatchTensor(&l.yb, x.N, x.C, x.T)
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			g, b := l.Gamma.W[c], l.Beta.W[c]
			xr, yr := x.Row(n, c), y.Row(n, c)
			for t := range xr {
				yr[t] = g*xr[t] + b
			}
		}
	}
	return y
}

// BackwardBatch implements Layer. Samples accumulate into the parameter
// gradients in batch order, matching sample-at-a-time Backward.
func (l *ChannelAffine) BackwardBatch(grad *BatchTensor) *BatchTensor {
	gx := ensureBatchTensor(&l.gxb, grad.N, grad.C, grad.T)
	for n := 0; n < grad.N; n++ {
		for c := 0; c < grad.C; c++ {
			var gg, gb float32
			xr, gr, gxr := l.xb.Row(n, c), grad.Row(n, c), gx.Row(n, c)
			g := l.Gamma.W[c]
			for t := range gr {
				gg += gr[t] * xr[t]
				gb += gr[t]
				gxr[t] = gr[t] * g
			}
			l.Gamma.G[c] += gg
			l.Beta.G[c] += gb
		}
	}
	return gx
}

// Flatten reshapes C×T into (C·T)×1.
type Flatten struct {
	name string
	c, t int
	out  Tensor // reused view headers over the input/gradient data
	back Tensor

	cb, tb int // batch-path shape cache
	outB   BatchTensor
	backB  BatchTensor
}

// NewFlatten returns a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (l *Flatten) Name() string { return l.name }

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// CloneForWorker implements Layer.
func (l *Flatten) CloneForWorker() Layer { return &Flatten{name: l.name} }

// OutShape implements Layer.
func (l *Flatten) OutShape(c, t int) (int, int) { return c * t, 1 }

// MACs implements Layer.
func (l *Flatten) MACs(c, t int) int64 { return 0 }

// Forward implements Layer.
func (l *Flatten) Forward(x *Tensor) *Tensor {
	l.c, l.t = x.C, x.T
	l.out = Tensor{C: x.C * x.T, T: 1, Data: x.Data}
	return &l.out
}

// Backward implements Layer.
func (l *Flatten) Backward(grad *Tensor) *Tensor {
	l.back = Tensor{C: l.c, T: l.t, Data: grad.Data}
	return &l.back
}

// ForwardBatch implements Layer: each sample's C×T block is contiguous, so
// flattening is a reshaped view of the same storage.
func (l *Flatten) ForwardBatch(x *BatchTensor) *BatchTensor {
	l.cb, l.tb = x.C, x.T
	l.outB = BatchTensor{N: x.N, C: x.C * x.T, T: 1, Data: x.Data}
	return &l.outB
}

// BackwardBatch implements Layer.
func (l *Flatten) BackwardBatch(grad *BatchTensor) *BatchTensor {
	l.backB = BatchTensor{N: grad.N, C: l.cb, T: l.tb, Data: grad.Data}
	return &l.backB
}

// Dense is a fully connected layer over flattened tensors (T must be 1).
type Dense struct {
	In, Out int
	Weight  *Param // shape [Out, In]
	Bias    *Param // shape [Out]
	x       *Tensor
	y       *Tensor
	gx      *Tensor

	xb      *BatchTensor
	yb, gxb *BatchTensor
	gTBuf   []float32
}

// NewDense constructs the layer.
func NewDense(name string, in, out int) *Dense {
	return &Dense{In: in, Out: out, Weight: NewParam(name+".w", out, in), Bias: NewParam(name+".b", out)}
}

// Name implements Layer.
func (l *Dense) Name() string { return l.Weight.Name[:len(l.Weight.Name)-2] }

// Params implements Layer.
func (l *Dense) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// CloneForWorker implements Layer.
func (l *Dense) CloneForWorker() Layer {
	c := *l
	c.Weight = l.Weight.shadow()
	c.Bias = l.Bias.shadow()
	c.x, c.y, c.gx = nil, nil, nil
	c.xb, c.yb, c.gxb, c.gTBuf = nil, nil, nil, nil
	return &c
}

// OutShape implements Layer.
func (l *Dense) OutShape(c, t int) (int, int) { return l.Out, 1 }

// MACs implements Layer.
func (l *Dense) MACs(c, t int) int64 { return int64(l.In) * int64(l.Out) }

// Forward implements Layer.
func (l *Dense) Forward(x *Tensor) *Tensor {
	if x.Numel() != l.In {
		panic(fmt.Sprintf("tcn: dense %s expects %d inputs, got %d", l.Name(), l.In, x.Numel()))
	}
	l.x = x
	y := ensureTensor(&l.y, l.Out, 1)
	for o := 0; o < l.Out; o++ {
		acc := l.Bias.W[o]
		row := l.Weight.W[o*l.In : (o+1)*l.In]
		for i, v := range x.Data {
			acc += row[i] * v
		}
		y.Data[o] = acc
	}
	return y
}

// Backward implements Layer.
func (l *Dense) Backward(grad *Tensor) *Tensor {
	gx := ensureTensor(&l.gx, l.x.C, l.x.T)
	gx.Zero()
	for o := 0; o < l.Out; o++ {
		g := grad.Data[o]
		l.Bias.G[o] += g
		wRow := l.Weight.W[o*l.In : (o+1)*l.In]
		gRow := l.Weight.G[o*l.In : (o+1)*l.In]
		for i, v := range l.x.Data {
			gRow[i] += g * v
			gx.Data[i] += g * wRow[i]
		}
	}
	return gx
}

// ForwardBatch implements Layer: the whole batch becomes one GEMM against
// the weight matrix (Y += X·Wᵀ over bias-seeded outputs), so the weights
// stream through the cache once per batch instead of once per window. The
// per-element accumulation order matches Forward, so results are bitwise
// identical to the serial loop.
func (l *Dense) ForwardBatch(x *BatchTensor) *BatchTensor {
	if x.C*x.T != l.In {
		panic(fmt.Sprintf("tcn: dense %s expects %d inputs, got %d", l.Name(), l.In, x.C*x.T))
	}
	l.xb = x
	y := ensureBatchTensor(&l.yb, x.N, l.Out, 1)
	for n := 0; n < x.N; n++ {
		copy(y.Data[n*l.Out:(n+1)*l.Out], l.Bias.W)
	}
	gemm.F32NT(y.Data, x.Data, l.Weight.W, x.N, l.In, l.Out)
	return y
}

// BackwardBatch implements Layer: dW += dYᵀ·X and dX = dY·W, both GEMMs.
// Per element both reductions run over samples in batch order seeded from
// the existing gradient, matching sample-at-a-time Backward bitwise.
func (l *Dense) BackwardBatch(grad *BatchTensor) *BatchTensor {
	x := l.xb
	N := grad.N
	gT := ensureSlice(&l.gTBuf, l.Out*N)
	for n := 0; n < N; n++ {
		for o := 0; o < l.Out; o++ {
			g := grad.Data[n*l.Out+o]
			l.Bias.G[o] += g
			gT[o*N+n] = g
		}
	}
	gemm.F32(l.Weight.G, gT, x.Data, l.Out, N, l.In)
	gx := ensureBatchTensor(&l.gxb, N, x.C, x.T)
	for i := range gx.Data {
		gx.Data[i] = 0
	}
	gemm.F32(gx.Data, grad.Data, l.Weight.W, N, l.Out, l.In)
	return gx
}

// InputNorm standardizes each channel of the input window to zero mean and
// unit variance. It is a fixed preprocessing layer (no parameters); being
// first, its Backward returns nil.
type InputNorm struct {
	name string
	y    *Tensor
	yb   *BatchTensor
}

// NewInputNorm returns the preprocessing layer.
func NewInputNorm(name string) *InputNorm { return &InputNorm{name: name} }

// Name implements Layer.
func (l *InputNorm) Name() string { return l.name }

// Params implements Layer.
func (l *InputNorm) Params() []*Param { return nil }

// CloneForWorker implements Layer.
func (l *InputNorm) CloneForWorker() Layer { return &InputNorm{name: l.name} }

// OutShape implements Layer.
func (l *InputNorm) OutShape(c, t int) (int, int) { return c, t }

// MACs implements Layer.
func (l *InputNorm) MACs(c, t int) int64 { return int64(3 * c * t) }

// Forward implements Layer.
func (l *InputNorm) Forward(x *Tensor) *Tensor {
	y := ensureTensor(&l.y, x.C, x.T)
	for c := 0; c < x.C; c++ {
		standardizeRow(y.Row(c), x.Row(c))
	}
	return y
}

// standardizeRow writes xr standardized to zero mean and unit variance
// into yr, accumulating mean and variance in float64: the one row body
// Forward and ForwardBatch share, so batched and serial inputs match
// bitwise.
func standardizeRow(yr, xr []float32) {
	var mean float64
	for _, v := range xr {
		mean += float64(v)
	}
	mean /= float64(len(xr))
	var varAcc float64
	for _, v := range xr {
		d := float64(v) - mean
		varAcc += d * d
	}
	std := math.Sqrt(varAcc/float64(len(xr))) + 1e-6
	for t, v := range xr {
		yr[t] = float32((float64(v) - mean) / std)
	}
}

// Backward implements Layer: InputNorm must be the first layer, so no
// upstream gradient is needed.
func (l *InputNorm) Backward(grad *Tensor) *Tensor { return nil }

// ForwardBatch implements Layer: each (sample, channel) row standardizes
// independently through Forward's standardizeRow.
func (l *InputNorm) ForwardBatch(x *BatchTensor) *BatchTensor {
	y := ensureBatchTensor(&l.yb, x.N, x.C, x.T)
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			standardizeRow(y.Row(n, c), x.Row(n, c))
		}
	}
	return y
}

// BackwardBatch implements Layer: like Backward, first-layer only.
func (l *InputNorm) BackwardBatch(grad *BatchTensor) *BatchTensor { return nil }

var (
	_ Layer = (*ReLU)(nil)
	_ Layer = (*ChannelAffine)(nil)
	_ Layer = (*Flatten)(nil)
	_ Layer = (*Dense)(nil)
	_ Layer = (*InputNorm)(nil)
)
