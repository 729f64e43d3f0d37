package tcn

import (
	"fmt"

	"repro/internal/gemm"
)

// Conv1D is a 1-D convolution with dilation and stride over channel-major
// tensors. Padding is symmetric "same-style": total = (K-1)·dilation,
// split evenly (left gets the remainder), so stride-1 layers preserve T and
// stride-2 layers halve it.
type Conv1D struct {
	InC, OutC int
	Kernel    int
	Dilation  int
	Stride    int

	Weight *Param // shape [OutC, InC, Kernel]
	Bias   *Param // shape [OutC]

	// Arenas: input cache, output, input gradient, and the im2col/ dcol/
	// Wᵀ packing buffers the GEMM lowering works out of. ywBuf/gwBuf are
	// the channel-major staging panels of the wide cross-sample path (GEMM
	// output before the sample-major scatter, and the gathered dY operand
	// of the backward GEMMs).
	x, y, gx *BatchTensor
	colBuf   []float32
	dcolBuf  []float32
	wTBuf    []float32
	ywBuf    []float32
	gwBuf    []float32
	// colWideValid records that colBuf holds the wide cross-sample panel
	// of the current x, letting BackwardBatch skip the re-pack the
	// per-sample path cannot avoid (its buffer only ever holds the last
	// sample). Any non-wide ForwardBatch invalidates it.
	colWideValid bool
}

// NewConv1D constructs the layer (weights must be initialized separately).
func NewConv1D(name string, inC, outC, kernel, dilation, stride int) *Conv1D {
	if inC <= 0 || outC <= 0 || kernel <= 0 || dilation <= 0 || stride <= 0 {
		panic(fmt.Sprintf("tcn: invalid conv config %d→%d k%d d%d s%d", inC, outC, kernel, dilation, stride))
	}
	return &Conv1D{
		InC: inC, OutC: outC, Kernel: kernel, Dilation: dilation, Stride: stride,
		Weight: NewParam(name+".w", outC, inC, kernel),
		Bias:   NewParam(name+".b", outC),
	}
}

func (l *Conv1D) padLeft() int {
	total := (l.Kernel - 1) * l.Dilation
	return total - total/2
}

// OutShape implements Layer. With total padding (K-1)·d the effective
// length is inT + (K-1)·d and each window spans (K-1)·d + 1 samples, so the
// number of stride-S positions is ⌊(inT-1)/S⌋ + 1: stride-1 layers preserve
// T, stride-2 layers halve it (rounding up).
func (l *Conv1D) OutShape(inC, inT int) (int, int) {
	return l.OutC, (inT-1)/l.Stride + 1
}

// MACs implements Layer.
func (l *Conv1D) MACs(inC, inT int) int64 {
	_, outT := l.OutShape(inC, inT)
	return int64(l.OutC) * int64(l.InC) * int64(l.Kernel) * int64(outT)
}

// Name implements Layer.
func (l *Conv1D) Name() string { return l.Weight.Name[:len(l.Weight.Name)-2] }

// Params implements Layer.
func (l *Conv1D) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// CloneForWorker implements Layer.
func (l *Conv1D) CloneForWorker() Layer {
	c := *l
	c.Weight = l.Weight.shadow()
	c.Bias = l.Bias.shadow()
	c.x, c.y, c.gx = nil, nil, nil
	c.colBuf, c.dcolBuf, c.wTBuf = nil, nil, nil
	c.ywBuf, c.gwBuf = nil, nil
	c.colWideValid = false
	return &c
}

// crossSampleMaxPanel gates the cross-sample im2col lowering, shared by
// the float32 and int8 conv paths: when a layer's per-sample GEMM output
// panel (outC×outT) is smaller than this, per-sample matrices are too
// small to amortize kernel dispatch and weight-panel reuse, so the batch
// is packed into one J×(N·outT) GEMM instead. Every TimePPG-Small conv
// (≤ 8×128 = 1024) falls under the threshold; every TimePPG-Big conv
// (≥ 64×32 = 2048) stays on the per-sample path, whose larger panels are
// already well-fed and whose wide form would outgrow the cache.
const crossSampleMaxPanel = 2048

// crossSampleWorthIt applies the heuristic for an N-sample batch.
func crossSampleWorthIt(n, outC, outT int) bool {
	return n > 1 && outC*outT < crossSampleMaxPanel
}

// tapRange returns the output positions [t0, t1] for which kernel tap
// offset off = k·D - padL reads inside [0, inT): t·S + off ∈ [0, inT).
// Clamping the range once per tap keeps the inner time loop branch-free.
// An empty range is signalled by t1 < t0.
func tapRange(off, stride, inT, outT int) (t0, t1 int) {
	if off >= inT {
		// Even t = 0 reads past the input; Go's truncated division would
		// otherwise round the negative numerator below toward zero and
		// report position 0 as valid.
		return 0, -1
	}
	t0 = 0
	if off < 0 {
		t0 = (-off + stride - 1) / stride
	}
	t1 = (inT - 1 - off) / stride
	if t1 > outT-1 {
		t1 = outT - 1
	}
	return t0, t1
}

// ForwardBatch implements Layer: each sample's receptive fields are packed
// with im2col and multiplied against the weight matrix by the blocked GEMM
// micro-kernel — per sample for large layers, or in one wide cross-sample
// GEMM when the heuristic says the per-sample panels would underfeed the
// kernels. Per output element the accumulation is bias-seeded and runs
// over (channel, tap) in ascending order — the plain convolution loop's
// order — so every window's result is bitwise the same on either path and
// at any N.
func (l *Conv1D) ForwardBatch(x *BatchTensor) *BatchTensor {
	if x.C != l.InC {
		panic(fmt.Sprintf("tcn: conv %s expects %d channels, got %d", l.Name(), l.InC, x.C))
	}
	l.x = x
	_, outT := l.OutShape(x.C, x.T)
	y := ensureBatchTensor(&l.y, x.N, l.OutC, outT)
	J := l.InC * l.Kernel
	padL := l.padLeft()
	if crossSampleWorthIt(x.N, l.OutC, outT) {
		l.forwardBatchWide(x, y, J, padL, outT)
		return y
	}
	l.colWideValid = false
	col := ensureSlice(&l.colBuf, J*outT)
	for n := 0; n < x.N; n++ {
		im2col(col, x.Sample(n), l.InC, x.T, l.Kernel, l.Dilation, l.Stride, padL, outT)
		ys := y.Sample(n)
		for o := 0; o < l.OutC; o++ {
			bias := l.Bias.W[o]
			row := ys[o*outT : (o+1)*outT]
			for t := range row {
				row[t] = bias
			}
		}
		gemm.F32(ys, l.Weight.W, col, l.OutC, J, outT)
	}
	return y
}

// forwardBatchWide is the cross-sample lowering: every sample's patches
// are packed into one J×(N·outT) panel, the whole layer becomes a single
// GEMM into a channel-major staging panel (rows bias-seeded exactly like
// the per-sample path), and the result is scattered back to the
// sample-major batch layout. The column a value lands in never enters its
// reduction, so each output element's accumulation chain — and therefore
// the bitwise result — is identical to the per-sample path.
func (l *Conv1D) forwardBatchWide(x, y *BatchTensor, J, padL, outT int) {
	wide := x.N * outT
	col := ensureSlice(&l.colBuf, J*wide)
	im2colWide(col, x.Data, x.N, l.InC, x.T, l.Kernel, l.Dilation, l.Stride, padL, outT)
	l.colWideValid = true
	yw := ensureSlice(&l.ywBuf, l.OutC*wide)
	for o := 0; o < l.OutC; o++ {
		bias := l.Bias.W[o]
		row := yw[o*wide : (o+1)*wide]
		for t := range row {
			row[t] = bias
		}
	}
	gemm.F32(yw, l.Weight.W, col, l.OutC, J, wide)
	for n := 0; n < x.N; n++ {
		ys := y.Sample(n)
		for o := 0; o < l.OutC; o++ {
			copy(ys[o*outT:(o+1)*outT], yw[o*wide+n*outT:o*wide+(n+1)*outT])
		}
	}
}

// BackwardBatch implements Layer: the weight gradient lowers onto the
// dot-product GEMM (dW += dY·colᵀ), the input gradient onto a Wᵀ GEMM
// followed by a col2im scatter — per sample, or through the wide
// cross-sample panels whenever ForwardBatch used them (the heuristic
// depends only on shapes, so the two passes always agree). ForwardBatch
// must have been called first.
func (l *Conv1D) BackwardBatch(grad *BatchTensor) *BatchTensor {
	x := l.x
	gx := ensureBatchTensor(&l.gx, x.N, x.C, x.T)
	outT := grad.T
	J := l.InC * l.Kernel
	wT := ensureSlice(&l.wTBuf, J*l.OutC)
	for o := 0; o < l.OutC; o++ {
		for j := 0; j < J; j++ {
			wT[j*l.OutC+o] = l.Weight.W[o*J+j]
		}
	}
	padL := l.padLeft()
	if crossSampleWorthIt(x.N, l.OutC, outT) {
		l.backwardBatchWide(grad, x, gx, wT, J, padL, outT)
		return gx
	}
	col := ensureSlice(&l.colBuf, J*outT)
	dcol := ensureSlice(&l.dcolBuf, J*outT)
	for n := 0; n < x.N; n++ {
		g := grad.Sample(n)
		for o := 0; o < l.OutC; o++ {
			var gb float32
			for _, v := range g[o*outT : (o+1)*outT] {
				gb += v
			}
			l.Bias.G[o] += gb
		}
		im2col(col, x.Sample(n), l.InC, x.T, l.Kernel, l.Dilation, l.Stride, padL, outT)
		gemm.F32NT(l.Weight.G, g, col, l.OutC, outT, J)
		for i := range dcol {
			dcol[i] = 0
		}
		gemm.F32(dcol, wT, g, J, l.OutC, outT)
		gxs := gx.Sample(n)
		for i := range gxs {
			gxs[i] = 0
		}
		col2imF32(gxs, dcol, l.InC, x.T, l.Kernel, l.Dilation, l.Stride, padL, outT, outT)
	}
	return gx
}

// backwardBatchWide runs both backward GEMMs once for the whole batch:
// dY is gathered into a channel-major (outC × N·outT) panel, the weight
// gradient becomes one dot-product GEMM over the wide im2col panel
// (reduction over (n, t) in batch order — the same ascending order the
// per-sample loop visits), and the input gradient one Wᵀ GEMM whose wide
// dcol result col2im-scatters back per sample.
func (l *Conv1D) backwardBatchWide(grad, x, gx *BatchTensor, wT []float32, J, padL, outT int) {
	wide := x.N * outT
	gw := ensureSlice(&l.gwBuf, l.OutC*wide)
	for n := 0; n < x.N; n++ {
		g := grad.Sample(n)
		for o := 0; o < l.OutC; o++ {
			var gb float32
			for _, v := range g[o*outT : (o+1)*outT] {
				gb += v
			}
			l.Bias.G[o] += gb
			copy(gw[o*wide+n*outT:o*wide+(n+1)*outT], g[o*outT:(o+1)*outT])
		}
	}
	// Reuse the wide panel ForwardBatch packed from the same x — the
	// cross-sample layout is what makes the forward's im2col work
	// recoverable here (the per-sample buffer only ever holds the last
	// sample's patches).
	col := ensureSlice(&l.colBuf, J*wide)
	if !l.colWideValid {
		im2colWide(col, x.Data, x.N, l.InC, x.T, l.Kernel, l.Dilation, l.Stride, padL, outT)
		l.colWideValid = true
	}
	gemm.F32NT(l.Weight.G, gw, col, l.OutC, wide, J)
	dcol := ensureSlice(&l.dcolBuf, J*wide)
	for i := range dcol {
		dcol[i] = 0
	}
	gemm.F32(dcol, wT, gw, J, l.OutC, wide)
	for i := range gx.Data {
		gx.Data[i] = 0
	}
	for n := 0; n < x.N; n++ {
		col2imF32(gx.Sample(n), dcol[n*outT:], l.InC, x.T, l.Kernel, l.Dilation, l.Stride, padL, outT, wide)
	}
}

var _ Layer = (*Conv1D)(nil)
