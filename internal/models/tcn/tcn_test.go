package tcn

import (
	"math"
	"math/rand"
	"testing"
)

func randTensor(rng *rand.Rand, c, t int) *Tensor {
	x := NewTensor(c, t)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

// At returns element (c, t). It, Set and Clone are element helpers for
// the tests; the library addresses Data directly.
func (x *Tensor) At(c, t int) float32 { return x.Data[c*x.T+t] }

// Set assigns element (c, t).
func (x *Tensor) Set(c, t int, v float32) { x.Data[c*x.T+t] = v }

// Clone returns a deep copy.
func (x *Tensor) Clone() *Tensor {
	out := NewTensor(x.C, x.T)
	copy(out.Data, x.Data)
	return out
}

func TestTensorBasics(t *testing.T) {
	x := NewTensor(3, 4)
	x.Set(2, 1, 5)
	if x.At(2, 1) != 5 {
		t.Error("Set/At mismatch")
	}
	if len(x.Row(2)) != 4 || x.Row(2)[1] != 5 {
		t.Error("Row view broken")
	}
	c := x.Clone()
	c.Set(0, 0, 9)
	if x.At(0, 0) == 9 {
		t.Error("Clone shares storage")
	}
}

func TestConvOutShape(t *testing.T) {
	cases := []struct {
		k, d, s  int
		inT      int
		wantOutT int
	}{
		{3, 1, 1, 256, 256},
		{3, 2, 1, 256, 256},
		{3, 4, 1, 256, 256},
		{3, 1, 2, 256, 128},
		{3, 1, 2, 255, 128},
		{5, 2, 2, 64, 32},
	}
	for _, c := range cases {
		l := NewConv1D("t", 2, 3, c.k, c.d, c.s)
		oc, ot := l.OutShape(2, c.inT)
		if oc != 3 || ot != c.wantOutT {
			t.Errorf("k%d d%d s%d inT %d: OutShape = (%d,%d), want (3,%d)",
				c.k, c.d, c.s, c.inT, oc, ot, c.wantOutT)
		}
		y := l.ForwardBatch(randomBatch(rand.New(rand.NewSource(1)), 2, 2, c.inT))
		if y.N != 2 || y.C != oc || y.T != ot {
			t.Errorf("forward shape (%d,%d,%d) != (2,%d,%d)", y.N, y.C, y.T, oc, ot)
		}
	}
}

func TestConvIdentityKernel(t *testing.T) {
	// A 1-tap-active kernel with stride 1 must reproduce the input row.
	l := NewConv1D("t", 1, 1, 3, 1, 1)
	l.Weight.W[1] = 1 // centre tap (padL=1 → offset k=1 maps to src=t)
	x := NewTensor(1, 8)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := l.ForwardBatch(batchOfOne(x))
	for i := range y.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("identity conv output[%d] = %v, want %v", i, y.Data[i], x.Data[i])
		}
	}
}

// numericalGrad estimates dLoss/dw via central differences.
func numericalGrad(f func() float64, w *float32) float64 {
	const eps = 1e-3
	orig := *w
	*w = orig + eps
	up := f()
	*w = orig - eps
	down := f()
	*w = orig
	return (up - down) / (2 * eps)
}

// TestGradientsNumerically verifies backprop for a small full stack:
// conv(d=2) → affine → relu → conv(s=2) → flatten → dense → dense(1). The
// loss and its central differences run through ForwardBatch at N = 1, so
// the check of BackwardBatch shares no code with a second backward pass.
func TestGradientsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := &Network{Topology: "tiny", InC: 2, InT: 16}
	net.Layers = []Layer{
		NewConv1D("c1", 2, 3, 3, 2, 1),
		NewChannelAffine("a1", 3),
		NewReLU("r1"),
		NewConv1D("c2", 3, 3, 3, 1, 2),
		NewReLU("r2"),
		NewFlatten("f"),
		NewDense("d1", 24, 5),
		NewReLU("r3"),
		NewDense("d2", 5, 1),
	}
	net.InitWeights(3)
	// Perturb affine away from identity so its gradients are non-trivial.
	for i := range net.Layers[1].(*ChannelAffine).Gamma.W {
		net.Layers[1].(*ChannelAffine).Gamma.W[i] = 1 + 0.3*float32(rng.NormFloat64())
		net.Layers[1].(*ChannelAffine).Beta.W[i] = 0.2 * float32(rng.NormFloat64())
	}
	x := batchOfOne(randTensor(rng, 2, 16))
	target := float32(0.7)
	var p, g [1]float32

	loss := func() float64 {
		net.ForwardBatch(x, p[:])
		l, _ := HuberLoss(p[0], target)
		return float64(l)
	}

	// Analytic gradients, from the batched backward pass at N = 1.
	net.ZeroGrad()
	net.ForwardBatch(x, p[:])
	_, g[0] = HuberLoss(p[0], target)
	net.BackwardBatch(g[:])

	checked := 0
	for _, par := range net.Params() {
		for i := 0; i < len(par.W); i += 1 + len(par.W)/7 { // sample a few
			want := numericalGrad(loss, &par.W[i])
			got := float64(par.G[i])
			tol := 1e-2 + 0.05*math.Abs(want)
			if math.Abs(got-want) > tol {
				t.Errorf("param %s[%d]: analytic %.5f vs numerical %.5f", par.Name, i, got, want)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

func TestTopologiesBuildAndCount(t *testing.T) {
	small := NewTimePPGSmall()
	big := NewTimePPGBig()
	sp, bp := small.NumParams(), big.NumParams()
	sm, bm := small.MACs(), big.MACs()
	t.Logf("Small: %d params, %d MACs; Big: %d params, %d MACs", sp, sm, bp, bm)
	// Paper targets: Small 5.09k params / 77.6k ops; Big 232.6k / 12.27M.
	if sp < 3000 || sp > 8000 {
		t.Errorf("Small params %d far from paper's 5.09k", sp)
	}
	if bp < 150_000 || bp > 350_000 {
		t.Errorf("Big params %d far from paper's 232.6k", bp)
	}
	if sm < 30_000 || sm > 160_000 {
		t.Errorf("Small MACs %d far from paper's 77.6k ops", sm)
	}
	if bm < 2_500_000 || bm > 25_000_000 {
		t.Errorf("Big MACs %d far from paper's 12.27M ops", bm)
	}
	// Ratio sanity: Big must cost 1-2 orders of magnitude more than Small.
	if bm < 20*sm {
		t.Errorf("Big/Small MAC ratio %0.f too small", float64(bm)/float64(sm))
	}
	// Forward shape sanity.
	x := randomBatch(rand.New(rand.NewSource(2)), 2, InputChannels, InputSamples)
	out := make([]float32, 2)
	small.ForwardBatch(x, out)
	big.ForwardBatch(x, out)
}

func TestNormalizationRoundTrip(t *testing.T) {
	for _, hr := range []float64{40, 75, 120, 200} {
		if got := DenormalizeHR(NormalizeHR(hr)); math.Abs(got-hr) > 1e-3 {
			t.Errorf("normalize round trip %v -> %v", hr, got)
		}
	}
}

// TestFitLearnsSyntheticRule trains a tiny network to recover a linear
// function of the input mean — convergence proves the trainer wiring.
func TestFitLearnsSyntheticRule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train := freqCodedSamples(rng, 256)
	net := NewTimePPGSmall()
	net.InitWeights(7)
	before := Evaluate(net, train)
	cfg := DefaultTrainConfig()
	cfg.Workers = 4
	loss, err := Fit(net, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := Evaluate(net, train)
	t.Logf("train MAE before %.2f after %.2f (loss %.4f)", before, after, loss)
	if after >= before*0.6 {
		t.Errorf("training did not reduce MAE: before %.2f, after %.2f", before, after)
	}
}

func TestFitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var train []Sample
	for i := 0; i < 64; i++ {
		train = append(train, Sample{X: randTensor(rng, InputChannels, InputSamples), HR: 60 + rng.Float64()*80})
	}
	run := func(workers int) []float32 {
		net := NewTimePPGSmall()
		net.InitWeights(1)
		cfg := TrainConfig{Epochs: 2, BatchSize: 16, LR: 1e-3, Seed: 3, Workers: workers, LRDecay: 1}
		if _, err := Fit(net, train, cfg); err != nil {
			t.Fatal(err)
		}
		var out []float32
		for _, p := range net.Params() {
			out = append(out, p.W...)
		}
		return out
	}
	// Same worker count ⇒ bitwise identical weights regardless of
	// goroutine scheduling.
	a := run(4)
	b := run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("4-worker runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Different worker counts only change FP summation order: weights must
	// agree to float32 round-off, not necessarily bitwise.
	c := run(1)
	for i := range a {
		diff := math.Abs(float64(a[i] - c[i]))
		tol := 1e-5 * (1 + math.Abs(float64(a[i])))
		if diff > tol {
			t.Fatalf("1-vs-4-worker weights differ at %d beyond round-off: %v vs %v", i, c[i], a[i])
		}
	}
}

// freqCodedSamples builds windows whose PPG channel oscillates at a
// frequency proportional to the HR label — the essence of the real task,
// and robust to InputNorm (which erases amplitude, not frequency).
func freqCodedSamples(rng *rand.Rand, n int) []Sample {
	var out []Sample
	for i := 0; i < n; i++ {
		x := NewTensor(InputChannels, InputSamples)
		level := rng.Float64()*2 - 1 // HR in [60, 120]
		hr := 90 + 30*level
		cycles := hr / 60 * 8 // 8-second window at 32 Hz
		for ti := 0; ti < x.T; ti++ {
			x.Set(0, ti, float32(math.Sin(2*math.Pi*cycles*float64(ti)/float64(x.T)))+
				float32(rng.NormFloat64()*0.05))
			x.Set(1, ti, float32(rng.NormFloat64()*0.1))
			x.Set(2, ti, float32(rng.NormFloat64()*0.1))
			x.Set(3, ti, float32(rng.NormFloat64()*0.1))
		}
		out = append(out, Sample{X: x, HR: hr})
	}
	return out
}

func TestFitEmptySet(t *testing.T) {
	net := NewTimePPGSmall()
	if _, err := Fit(net, nil, DefaultTrainConfig()); err == nil {
		t.Error("empty training set accepted")
	}
}
