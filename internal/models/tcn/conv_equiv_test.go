package tcn

import (
	"math"
	"math/rand"
	"testing"
)

// naiveConvForward is the seed implementation — the per-sample
// bounds-checked triple loop — kept as the reference the optimized kernel
// must match bitwise (identical accumulation order).
func naiveConvForward(l *Conv1D, x *Tensor) *Tensor {
	_, outT := l.OutShape(x.C, x.T)
	y := NewTensor(l.OutC, outT)
	padL := l.padLeft()
	K, D, S := l.Kernel, l.Dilation, l.Stride
	for o := 0; o < l.OutC; o++ {
		yRow := y.Row(o)
		bias := l.Bias.W[o]
		for t := range yRow {
			yRow[t] = bias
		}
		for ci := 0; ci < l.InC; ci++ {
			xRow := x.Row(ci)
			wBase := (o*l.InC + ci) * K
			for k := 0; k < K; k++ {
				w := l.Weight.W[wBase+k]
				if w == 0 {
					continue
				}
				off := k*D - padL
				for t := 0; t < outT; t++ {
					src := t*S + off
					if src >= 0 && src < x.T {
						yRow[t] += w * xRow[src]
					}
				}
			}
		}
	}
	return y
}

// naiveConvBackward mirrors the seed backward pass, accumulating into the
// provided gradient buffers.
func naiveConvBackward(l *Conv1D, x, grad *Tensor, wG, bG []float32) *Tensor {
	gx := NewTensor(x.C, x.T)
	padL := l.padLeft()
	K, D, S := l.Kernel, l.Dilation, l.Stride
	for o := 0; o < l.OutC; o++ {
		gRow := grad.Row(o)
		var gb float32
		for _, g := range gRow {
			gb += g
		}
		bG[o] += gb
		for ci := 0; ci < l.InC; ci++ {
			xRow := x.Row(ci)
			gxRow := gx.Row(ci)
			wBase := (o*l.InC + ci) * K
			for k := 0; k < K; k++ {
				off := k*D - padL
				var gw float32
				w := l.Weight.W[wBase+k]
				for t, g := range gRow {
					src := t*S + off
					if src >= 0 && src < x.T {
						gw += g * xRow[src]
						gxRow[src] += g * w
					}
				}
				wG[wBase+k] += gw
			}
		}
	}
	return gx
}

func randomConv(rng *rand.Rand, inC, outC, kernel, dilation, stride int) *Conv1D {
	l := NewConv1D("t.conv", inC, outC, kernel, dilation, stride)
	for i := range l.Weight.W {
		l.Weight.W[i] = float32(rng.NormFloat64())
	}
	// Leave a few exact zeros so the sparsity skip is exercised.
	l.Weight.W[0] = 0
	for i := range l.Bias.W {
		l.Bias.W[i] = float32(rng.NormFloat64())
	}
	return l
}

func randomTensor(rng *rand.Rand, c, t int) *Tensor {
	x := NewTensor(c, t)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

// TestConv1DForwardMatchesNaive sweeps odd/even kernels, dilations and
// strides 1–2 over several lengths; a batch of one through the im2col+GEMM
// kernel must match the naive loop exactly (it performs the same additions
// in the same order).
func TestConv1DForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, kernel := range []int{1, 2, 3, 4, 5, 8} {
		for _, dil := range []int{1, 2, 4} {
			for _, stride := range []int{1, 2} {
				// Degenerate lengths (1, 2) where padding exceeds the
				// signal are included deliberately: taps whose offset
				// falls entirely past the input must contribute nothing.
				for _, inT := range []int{1, 2, 5, 16, 31, 64} {
					l := randomConv(rng, 3, 2, kernel, dil, stride)
					x := randomTensor(rng, 3, inT)
					got := l.ForwardBatch(batchOfOne(x))
					want := naiveConvForward(l, x)
					if got.N != 1 || got.C != want.C || got.T != want.T {
						t.Fatalf("k%d d%d s%d T%d: shape %dx%dx%d, want 1x%dx%d",
							kernel, dil, stride, inT, got.N, got.C, got.T, want.C, want.T)
					}
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("k%d d%d s%d T%d: elem %d = %v, want %v (must be bitwise equal)",
								kernel, dil, stride, inT, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestConv1DBackwardMatchesNaive runs a batch of one through the GEMM
// backward over the same sweep, degenerate lengths included. Its
// input-gradient sums associate differently from the naive loop (col2im
// scatter order), so equality is to a tight tolerance rather than bitwise.
func TestConv1DBackwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const tol = 1e-4
	for _, kernel := range []int{1, 2, 3, 5} {
		for _, dil := range []int{1, 2, 4} {
			for _, stride := range []int{1, 2} {
				for _, inT := range []int{1, 2, 33} {
					l := randomConv(rng, 2, 3, kernel, dil, stride)
					x := randomTensor(rng, 2, inT)
					y := l.ForwardBatch(batchOfOne(x))
					grad := randomTensor(rng, y.C, y.T)

					wantWG := make([]float32, len(l.Weight.G))
					wantBG := make([]float32, len(l.Bias.G))
					wantGX := naiveConvBackward(l, x, grad, wantWG, wantBG)

					l.Weight.ZeroGrad()
					l.Bias.ZeroGrad()
					gx := l.BackwardBatch(batchOfOne(grad))
					for i := range wantGX.Data {
						if d := float64(gx.Data[i] - wantGX.Data[i]); math.Abs(d) > tol {
							t.Fatalf("k%d d%d s%d: gx[%d] = %v, want %v", kernel, dil, stride, i, gx.Data[i], wantGX.Data[i])
						}
					}
					for i := range wantWG {
						if d := float64(l.Weight.G[i] - wantWG[i]); math.Abs(d) > tol {
							t.Fatalf("k%d d%d s%d: wG[%d] = %v, want %v", kernel, dil, stride, i, l.Weight.G[i], wantWG[i])
						}
					}
					for i := range wantBG {
						if d := float64(l.Bias.G[i] - wantBG[i]); math.Abs(d) > tol {
							t.Fatalf("k%d d%d s%d: bG[%d] = %v, want %v", kernel, dil, stride, i, l.Bias.G[i], wantBG[i])
						}
					}
				}
			}
		}
	}
}

// TestLayerOutputReuseIsSafeAcrossSamples guards the arena semantics: a
// forward pass on different data and a different batch size must not
// corrupt a later pass on the first batch (each call fully overwrites the
// reused buffers, whether they grow or shrink).
func TestLayerOutputReuseIsSafeAcrossSamples(t *testing.T) {
	net := NewTimePPGSmall()
	net.InitWeights(5)
	rng := rand.New(rand.NewSource(25))
	x1 := randomBatch(rng, 3, InputChannels, InputSamples)
	first := make([]float32, 3)
	net.ForwardBatch(x1, first)
	for _, n := range []int{5, 1} {
		net.ForwardBatch(randomBatch(rng, n, InputChannels, InputSamples), make([]float32, n))
		again := make([]float32, 3)
		net.ForwardBatch(x1, again)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("after an N=%d pass, sample %d: first=%v again=%v: reused buffers must reproduce identical outputs",
					n, i, first[i], again[i])
			}
		}
	}
}

// BenchmarkConv1DForwardOne times one window through a representative
// TimePPG-Big mid-block layer (48→48, k=3, d=4, T=128) as a batch of one.
func BenchmarkConv1DForwardOne(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	l := randomConv(rng, 48, 48, 3, 4, 1)
	x := batchOfOne(randomTensor(rng, 48, 128))
	l.ForwardBatch(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ForwardBatch(x)
	}
}
