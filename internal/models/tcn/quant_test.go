package tcn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
)

func trainedTinyNet(t *testing.T) (*Network, []Sample) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	train := freqCodedSamples(rng, 128)
	net := NewTimePPGSmall()
	net.InitWeights(13)
	cfg := TrainConfig{Epochs: 8, BatchSize: 8, LR: 4e-3, Seed: 1, Workers: 4, LRDecay: 0.9}
	if _, err := Fit(net, train, cfg); err != nil {
		t.Fatal(err)
	}
	return net, train
}

func TestFoldAffineEquivalence(t *testing.T) {
	net, train := trainedTinyNet(t)
	folded := FoldAffine(net)
	for i := 0; i < 16; i++ {
		x := train[i].X
		a := refForward(net, x)
		b := refForward(folded, x)
		if math.Abs(float64(a-b)) > 1e-3 {
			t.Fatalf("folded output %v differs from original %v", b, a)
		}
	}
	// Folding must remove every ChannelAffine.
	for _, l := range folded.Layers {
		if _, ok := l.(*ChannelAffine); ok {
			t.Fatal("affine layer survived folding")
		}
	}
}

func TestQuantizedCloseToFloat(t *testing.T) {
	net, train := trainedTinyNet(t)
	var calib []*Tensor
	for i := 0; i < 32; i++ {
		calib = append(calib, train[i].X)
	}
	q, err := Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff float64
	for i := 32; i < 64; i++ {
		f := DenormalizeHR(refForward(net, train[i].X))
		qv := DenormalizeHR(q.Forward(train[i].X))
		d := math.Abs(f - qv)
		if d > maxDiff {
			maxDiff = d
		}
	}
	t.Logf("max float-vs-int8 divergence: %.3f BPM", maxDiff)
	// int8 with per-channel scales should stay within a few BPM.
	if maxDiff > 8 {
		t.Errorf("quantized divergence %.2f BPM too large", maxDiff)
	}
	if q.MACs() <= 0 {
		t.Error("quantized MAC count not positive")
	}
}

func TestQuantizeNeedsCalibration(t *testing.T) {
	net := NewTimePPGSmall()
	net.InitWeights(1)
	if _, err := Quantize(net, nil); err == nil {
		t.Error("quantization without calibration accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net, train := trainedTinyNet(t)
	path := filepath.Join(t.TempDir(), "small.tcnw")
	if err := Save(net, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Topology != net.Topology {
		t.Fatalf("topology %q, want %q", loaded.Topology, net.Topology)
	}
	for i := 0; i < 8; i++ {
		a := refForward(net, train[i].X)
		b := refForward(loaded, train[i].X)
		if a != b {
			t.Fatalf("loaded network output %v differs from original %v", b, a)
		}
	}
}

// weightFields writes a weight payload: the topology name, a parameter
// count, then each parameter's name and values after edit (nil keeps
// them).
func weightFields(topology string, count int, params []*Param, edit func(i int, name string, w []float32) (string, []float32)) func(w *snapshot.Writer) {
	return func(w *snapshot.Writer) {
		w.String(topology)
		w.U64(uint64(count))
		for i, p := range params {
			name, vals := p.Name, p.W
			if edit != nil {
				name, vals = edit(i, name, vals)
			}
			w.String(name)
			w.F32s(vals)
		}
	}
}

// sealWeights seals a payload into a frame of the given kind with a valid
// CRC, so a malformed payload reaches Load's payload checks.
func sealWeights(kind snapshot.Kind, fill func(w *snapshot.Writer)) []byte {
	w := snapshot.NewWriter(kind, 0)
	fill(w)
	return w.Finish()
}

// parentWeightFile encodes net in the pre-CHSS TCNW layout: magic,
// version u32, topology, parameter count u32, then per parameter its
// name, element count u32 and float32 values.
func parentWeightFile(net *Network) []byte {
	var b bytes.Buffer
	str := func(s string) {
		binary.Write(&b, binary.LittleEndian, uint32(len(s)))
		b.WriteString(s)
	}
	b.WriteString("TCNW")
	binary.Write(&b, binary.LittleEndian, uint32(1))
	str(net.Topology)
	params := net.Params()
	binary.Write(&b, binary.LittleEndian, uint32(len(params)))
	for _, p := range params {
		str(p.Name)
		binary.Write(&b, binary.LittleEndian, uint32(len(p.W)))
		binary.Write(&b, binary.LittleEndian, p.W)
	}
	return b.Bytes()
}

func TestLoadRejectsGarbage(t *testing.T) {
	net := NewTimePPGSmall()
	net.InitWeights(3)
	params := net.Params()
	dir := t.TempDir()
	validPath := filepath.Join(dir, "valid.tcnw")
	if err := Save(net, validPath); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(validPath)
	if err != nil {
		t.Fatal(err)
	}
	// The sealing helpers reproduce Save's bytes, so each case below
	// fails on its own mutation.
	if !bytes.Equal(sealWeights(snapshot.KindWeights, weightFields(SmallName, len(params), params, nil)), valid) {
		t.Fatal("resealed weights differ from Save's encoding")
	}
	reseal := func(edit func(i int, name string, w []float32) (string, []float32)) []byte {
		return sealWeights(snapshot.KindWeights, weightFields(SmallName, len(params), params, edit))
	}
	first := func(f func(name string, w []float32) (string, []float32)) func(int, string, []float32) (string, []float32) {
		return func(i int, name string, w []float32) (string, []float32) {
			if i == 0 {
				return f(name, w)
			}
			return name, w
		}
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"parent-tcnw", parentWeightFile(net), snapshot.ErrCorrupt},
		{"truncated-frame", valid[:len(valid)/2], snapshot.ErrCorrupt},
		{"belief-kind", sealWeights(snapshot.KindBeliefTable, weightFields(SmallName, len(params), params, nil)), snapshot.ErrStale},
		{"nan-weight", reseal(first(func(name string, w []float32) (string, []float32) {
			w = append([]float32(nil), w...)
			w[len(w)/2] = float32(math.NaN())
			return name, w
		})), snapshot.ErrCorrupt},
		{"unknown-topology", sealWeights(snapshot.KindWeights, weightFields("TimePPG-Huge", len(params), params, nil)), snapshot.ErrCorrupt},
		{"param-count", sealWeights(snapshot.KindWeights, weightFields(SmallName, len(params)+1, params, nil)), snapshot.ErrCorrupt},
		{"swapped-name", reseal(first(func(_ string, w []float32) (string, []float32) { return params[1].Name, w })), snapshot.ErrCorrupt},
		{"short-elements", reseal(first(func(name string, w []float32) (string, []float32) { return name, w[:len(w)-1] })), snapshot.ErrCorrupt},
		{"trailing-byte", sealWeights(snapshot.KindWeights, func(w *snapshot.Writer) {
			weightFields(SmallName, len(params), params, nil)(w)
			w.U8(0)
		}), snapshot.ErrCorrupt},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".tcnw")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.tcnw")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v", err)
	}
}

func TestEstimatorInterface(t *testing.T) {
	net, train := trainedTinyNet(t)
	est := NewEstimator(net)
	if est.Name() != SmallName {
		t.Errorf("Name = %q", est.Name())
	}
	if est.Ops() != net.MACs() || est.Params() != net.NumParams() {
		t.Error("Ops/Params mismatch with network")
	}
	var calib []*Tensor
	for i := 0; i < 16; i++ {
		calib = append(calib, train[i].X)
	}
	if err := est.Quantize(calib); err != nil {
		t.Fatal(err)
	}
	if !est.Quantized() {
		t.Error("Quantized() false after Quantize")
	}
	if s := est.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestDescribe(t *testing.T) {
	d := NewTimePPGSmall().Describe()
	if len(d) < 100 {
		t.Errorf("Describe too short: %q", d)
	}
}

// serialMaxAbs is the reference calibration pass: every window through
// every layer of the folded network with the per-window reference loops
// (refLayer), recording each stage's activation max-abs.
func serialMaxAbs(folded *Network, calib []*Tensor) []float32 {
	maxAbs := make([]float32, len(folded.Layers)+1)
	for _, x := range calib {
		cur := x
		for li, l := range folded.Layers {
			cur = refLayer(l, cur)
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
	return maxAbs
}

// TestQuantizeCalibrationMatchesSerial pins the batched calibration pass
// against the serial one: the per-stage max-abs values, and with them the
// input scale, every op's output and weight scales, biases and int8
// weights, must be bitwise identical for both paper topologies at one,
// a few and the suite's count of calibration windows, and at a count that
// spans two full calibration batches and a partial third.
func TestQuantizeCalibrationMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	bits := math.Float32bits
	for _, build := range []func() *Network{NewTimePPGSmall, NewTimePPGBig} {
		net := build()
		net.InitWeights(17)
		for _, count := range []int{1, 5, 64, 2*calibChunk + 22} {
			calib := make([]*Tensor, count)
			for i := range calib {
				calib[i] = randomTensor(rng, InputChannels, InputSamples)
			}
			name := fmt.Sprintf("%s/%d", net.Topology, count)
			got, err := calibrate(FoldAffine(net), calib)
			if err != nil {
				t.Fatal(err)
			}
			refFolded := FoldAffine(net)
			want := serialMaxAbs(refFolded, calib)
			for li := range want {
				if bits(got[li]) != bits(want[li]) {
					t.Fatalf("%s: stage %d max-abs %v, serial %v", name, li, got[li], want[li])
				}
			}
			q, err := Quantize(net, calib)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := quantizeFolded(net, refFolded, want)
			if err != nil {
				t.Fatal(err)
			}
			if bits(q.inScale) != bits(ref.inScale) || len(q.ops) != len(ref.ops) {
				t.Fatalf("%s: inScale %v vs %v, %d vs %d ops", name, q.inScale, ref.inScale, len(q.ops), len(ref.ops))
			}
			for i, op := range q.ops {
				var outScale, refOut float32
				var wScale, refW []float32
				var bias, refBias []int32
				var weight, refWeight []int8
				switch v := op.(type) {
				case *qConv:
					r := ref.ops[i].(*qConv)
					outScale, wScale, bias, weight = v.outScale, v.wScale, v.bias, v.weight
					refOut, refW, refBias, refWeight = r.outScale, r.wScale, r.bias, r.weight
				case *qDense:
					r := ref.ops[i].(*qDense)
					outScale, wScale, bias, weight = v.outScale, v.wScale, v.bias, v.weight
					refOut, refW, refBias, refWeight = r.outScale, r.wScale, r.bias, r.weight
				}
				if bits(outScale) != bits(refOut) {
					t.Fatalf("%s op %d: outScale %v, serial %v", name, i, outScale, refOut)
				}
				for o := range refW {
					if bits(wScale[o]) != bits(refW[o]) || bias[o] != refBias[o] {
						t.Fatalf("%s op %d channel %d: wScale %v bias %d, serial %v %d", name, i, o, wScale[o], bias[o], refW[o], refBias[o])
					}
				}
				for j := range refWeight {
					if weight[j] != refWeight[j] {
						t.Fatalf("%s op %d: weight %d = %d, serial %d", name, i, j, weight[j], refWeight[j])
					}
				}
			}
		}
	}
}

// TestQConvBatchGeometriesMatchSerial drives the panel im2col through
// geometries the paper networks never use — odd channel counts (an odd
// reduction length), even and wide kernels, strides 2 and 3, input
// lengths that leave partial panels, a one-sample input — on both the
// per-sample and the cross-sample lowering, against the serial kernel.
func TestQConvBatchGeometriesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, g := range []struct{ inC, outC, kernel, dil, stride, inT int }{
		{1, 16, 3, 1, 1, 1}, {3, 5, 3, 2, 2, 7}, {4, 17, 2, 1, 3, 31},
		{5, 8, 5, 4, 1, 33}, {2, 3, 3, 1, 2, 100}, {6, 20, 3, 4, 2, 64},
	} {
		conv := NewConv1D("c", g.inC, g.outC, g.kernel, g.dil, g.stride)
		for i := range conv.Weight.W {
			conv.Weight.W[i] = float32(rng.NormFloat64())
		}
		for i := range conv.Bias.W {
			conv.Bias.W[i] = float32(rng.NormFloat64())
		}
		qc := quantizeConv(conv, 0.02, 0.3, g.inT)
		qc.relu = g.stride != 2
		var scratch qScratch
		for _, N := range []int{1, 3, 40} {
			x := &qBatchTensor{N: N, C: g.inC, T: g.inT, Data: make([]int8, N*g.inC*g.inT), Scale: 0.02}
			for i := range x.Data {
				x.Data[i] = int8(rng.Intn(256) - 128)
			}
			y := qc.forwardBatch(x, &scratch)
			for n := 0; n < N; n++ {
				ys := qc.forward(&qTensor{C: g.inC, T: g.inT, Data: x.Sample(n), Scale: x.Scale})
				for i, v := range ys.Data {
					if y.Sample(n)[i] != v {
						t.Fatalf("%+v N=%d sample %d: elem %d = %d, serial %d", g, N, n, i, y.Sample(n)[i], v)
					}
				}
			}
		}
	}
}
