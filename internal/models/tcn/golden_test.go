package tcn

import (
	"math"
	"math/rand"
	"testing"
)

// quantGolden is the int8 output of each topology on goldenWindows, as
// float32 bits. The values pin the whole quantized path end to end —
// calibration, weight and bias quantization, the packed GEMM kernels and
// the requantize rows — on whatever int8 kernel the host selects, so a
// change to any of them that moves one bit of one window fails here.
var quantGolden = map[string][8]uint32{
	SmallName: {
		0x3d255dbc, 0xbf19c89f, 0x3e8a6dbe, 0x3f677278,
		0x3f02aa5b, 0x3d24de08, 0x3e06204d, 0x3e596ecd,
	},
	BigName: {
		0xbe7e0b01, 0xbf21ff2d, 0xbef9bcb7, 0xbf044a5b,
		0xbf03f355, 0xbe891182, 0xbef2388b, 0xbe2ef3b6,
	},
}

// goldenWindows draws the fixed calibration and test windows of
// TestQuantForwardBatchGolden: frequency-coded PPG over accelerometer
// noise, so the ReLU stacks see realistic, varied activations.
func goldenWindows() (calib []*Tensor, test *BatchTensor) {
	samples := freqCodedSamples(rand.New(rand.NewSource(2203)), 24)
	for _, s := range samples[:16] {
		calib = append(calib, s.X)
	}
	test = NewBatchTensor(8, InputChannels, InputSamples)
	for n, s := range samples[16:] {
		copy(test.Sample(n), s.X.Data)
	}
	return calib, test
}

// TestQuantForwardBatchGolden pins the bits of QuantNetwork.ForwardBatch
// for a fixed-seed TimePPG-Small and TimePPG-Big, quantized on fixed
// calibration windows, over eight windows run as one batch and one at a
// time.
func TestQuantForwardBatchGolden(t *testing.T) {
	calib, test := goldenWindows()
	for _, build := range []func() *Network{NewTimePPGSmall, NewTimePPGBig} {
		net := build()
		net.InitWeights(404)
		q, err := Quantize(net, calib)
		if err != nil {
			t.Fatal(err)
		}
		want := quantGolden[net.Topology]
		out := make([]float32, test.N)
		q.ForwardBatch(test, out)
		for n, v := range out {
			if math.Float32bits(v) != want[n] {
				t.Errorf("%s N=8 window %d = %#08x, golden %#08x", net.Topology, n, math.Float32bits(v), want[n])
			}
		}
		one := NewBatchTensor(1, InputChannels, InputSamples)
		for n := range want {
			copy(one.Data, test.Sample(n))
			q.ForwardBatch(one, out[:1])
			if math.Float32bits(out[0]) != want[n] {
				t.Errorf("%s N=1 window %d = %#08x, golden %#08x", net.Topology, n, math.Float32bits(out[0]), want[n])
			}
		}
	}
}

// TestQuantForwardBatchInvariant requires every window's int8 output to
// be the same bits in a batch of any size as on its own, for both
// topologies and N ∈ {1, …, 17, 29}: the batch sizes put TimePPG-Big's
// head on every row block of the int8 product and its m mod 8 tails, and
// TimePPG-Small's cross-sample convolutions on every panel count.
func TestQuantForwardBatchInvariant(t *testing.T) {
	calib, _ := goldenWindows()
	const most = 29
	samples := freqCodedSamples(rand.New(rand.NewSource(4129)), most)
	for _, build := range []func() *Network{NewTimePPGSmall, NewTimePPGBig} {
		net := build()
		net.InitWeights(405)
		q, err := Quantize(net, calib)
		if err != nil {
			t.Fatal(err)
		}
		alone := make([]float32, most)
		one := NewBatchTensor(1, InputChannels, InputSamples)
		for n, s := range samples {
			copy(one.Data, s.X.Data)
			q.ForwardBatch(one, alone[n:n+1])
		}
		for _, N := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, most} {
			x := NewBatchTensor(N, InputChannels, InputSamples)
			for n := range N {
				copy(x.Sample(n), samples[n].X.Data)
			}
			out := make([]float32, N)
			q.ForwardBatch(x, out)
			for n, v := range out {
				if math.Float32bits(v) != math.Float32bits(alone[n]) {
					t.Errorf("%s N=%d window %d = %#08x, alone %#08x", net.Topology, N, n, math.Float32bits(v), math.Float32bits(alone[n]))
				}
			}
		}
	}
}
