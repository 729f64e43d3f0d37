package tcn

import (
	"fmt"
	"math"
)

// This file holds the float32 per-window reference: one window, plain
// loops, the per-element accumulation order the batched layers must
// reproduce bitwise (naiveConvForward and naiveConvBackward in
// conv_equiv_test.go are its convolution). Only the tests run it, as the
// independent reference the batch pins compare against; each call
// allocates its outputs.

// Row returns the slice backing channel c.
func (x *Tensor) Row(c int) []float32 { return x.Data[c*x.T : (c+1)*x.T] }

// batchOfOne returns a one-window batch viewing x's storage.
func batchOfOne(x *Tensor) *BatchTensor {
	return &BatchTensor{N: 1, C: x.C, T: x.T, Data: x.Data}
}

// refInputNorm standardizes each channel of x to zero mean and unit
// variance, with mean and variance accumulated in float64.
func refInputNorm(x *Tensor) *Tensor {
	y := NewTensor(x.C, x.T)
	for c := 0; c < x.C; c++ {
		xr, yr := x.Row(c), y.Row(c)
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
	return y
}

func refReLU(x *Tensor) *Tensor {
	y := NewTensor(x.C, x.T)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = 0
		}
	}
	return y
}

func refAffine(l *ChannelAffine, x *Tensor) *Tensor {
	y := NewTensor(x.C, x.T)
	for c := 0; c < x.C; c++ {
		g, b := l.Gamma.W[c], l.Beta.W[c]
		xr, yr := x.Row(c), y.Row(c)
		for t := range xr {
			yr[t] = g*xr[t] + b
		}
	}
	return y
}

// refReLUBackward passes grad through where the window's input x was
// positive.
func refReLUBackward(x, grad *Tensor) *Tensor {
	gx := NewTensor(grad.C, grad.T)
	for i, v := range x.Data {
		if v > 0 {
			gx.Data[i] = grad.Data[i]
		} else {
			gx.Data[i] = 0
		}
	}
	return gx
}

// refAffineBackward accumulates one window's gradients into l's parameter
// gradients and returns the input gradient.
func refAffineBackward(l *ChannelAffine, x, grad *Tensor) *Tensor {
	gx := NewTensor(grad.C, grad.T)
	for c := 0; c < grad.C; c++ {
		var gg, gb float32
		xr, gr, gxr := x.Row(c), grad.Row(c), gx.Row(c)
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

// refFlatten reshapes C×T into (C·T)×1, sharing x's storage.
func refFlatten(x *Tensor) *Tensor {
	return &Tensor{C: x.C * x.T, T: 1, Data: x.Data}
}

func refDense(l *Dense, x *Tensor) *Tensor {
	if x.Numel() != l.In {
		panic(fmt.Sprintf("tcn: dense %s expects %d inputs, got %d", l.Name(), l.In, x.Numel()))
	}
	y := NewTensor(l.Out, 1)
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

// refDenseBackward accumulates the gradients of one window (input x,
// output gradient grad) into l's parameter gradients and returns the
// input gradient.
func refDenseBackward(l *Dense, x, grad *Tensor) *Tensor {
	gx := NewTensor(x.C, x.T)
	for o := 0; o < l.Out; o++ {
		g := grad.Data[o]
		l.Bias.G[o] += g
		wRow := l.Weight.W[o*l.In : (o+1)*l.In]
		gRow := l.Weight.G[o*l.In : (o+1)*l.In]
		for i, v := range x.Data {
			gRow[i] += g * v
			gx.Data[i] += g * wRow[i]
		}
	}
	return gx
}

// refLayer runs the reference of one layer on one window.
func refLayer(l Layer, x *Tensor) *Tensor {
	switch v := l.(type) {
	case *InputNorm:
		return refInputNorm(x)
	case *Conv1D:
		return naiveConvForward(v, x)
	case *ChannelAffine:
		return refAffine(v, x)
	case *ReLU:
		return refReLU(x)
	case *Flatten:
		return refFlatten(x)
	case *Dense:
		return refDense(v, x)
	}
	panic(fmt.Sprintf("tcn: no reference for layer %T", l))
}

// refForward runs the reference over every layer of net on one window and
// returns the scalar output (the normalized HR).
func refForward(net *Network, x *Tensor) float32 {
	cur := x
	for _, l := range net.Layers {
		cur = refLayer(l, cur)
	}
	if cur.Numel() != 1 {
		panic(fmt.Sprintf("tcn: network %s output has %d elements, want 1", net.Topology, cur.Numel()))
	}
	return cur.Data[0]
}

// refBackward runs the reference forward and backward passes of net on one
// window whose scalar output has gradient g, accumulating into net's
// parameter gradients. The first layer (InputNorm) needs no input
// gradient.
func refBackward(net *Network, x *Tensor, g float32) {
	ins := make([]*Tensor, len(net.Layers))
	cur := x
	for i, l := range net.Layers {
		ins[i] = cur
		cur = refLayer(l, cur)
	}
	grad := &Tensor{C: 1, T: 1, Data: []float32{g}}
	for i := len(net.Layers) - 1; i > 0; i-- {
		switch v := net.Layers[i].(type) {
		case *Conv1D:
			grad = naiveConvBackward(v, ins[i], grad, v.Weight.G, v.Bias.G)
		case *ChannelAffine:
			grad = refAffineBackward(v, ins[i], grad)
		case *ReLU:
			grad = refReLUBackward(ins[i], grad)
		case *Flatten:
			grad = &Tensor{C: ins[i].C, T: ins[i].T, Data: grad.Data}
		case *Dense:
			grad = refDenseBackward(v, ins[i], grad)
		default:
			panic(fmt.Sprintf("tcn: no reference backward for layer %T", v))
		}
	}
}
