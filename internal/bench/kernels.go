package bench

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/dsp"
	"repro/internal/gemm"
	"repro/internal/models/spectral"
	"repro/internal/models/tcn"
	"repro/internal/reccache"
)

// KernelResult is one measured hot-path kernel, in the shape BENCH_*.json
// stores: optimized implementations next to their seed-equivalent
// references, so every perf PR leaves a comparable datapoint behind.
type KernelResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func runKernel(name string, fn func(b *testing.B)) KernelResult {
	return runKernelScaled(name, 1, fn)
}

// runKernelScaled divides every measurement by scale, so a benchmark body
// that processes a whole batch per iteration still reports per-window
// numbers comparable with its serial counterpart. Allocation counts round
// up, so even a single allocation per batch stays visible rather than
// truncating to a clean zero.
func runKernelScaled(name string, scale int, fn func(b *testing.B)) KernelResult {
	r := testing.Benchmark(fn)
	s := int64(scale)
	return KernelResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N) / float64(scale),
		AllocsPerOp: (r.AllocsPerOp() + s - 1) / s,
		BytesPerOp:  (r.AllocedBytesPerOp() + s - 1) / s,
	}
}

// KernelBenchmarks measures the DSP and TCN kernels this repository
// optimizes, each against the seed implementation it replaced.
func KernelBenchmarks() []KernelResult {
	sig := make([]float64, 256)
	for i := range sig {
		sig[i] = math.Sin(float64(i) / 3)
	}
	plan := dsp.NewPlan(256)
	spec := make([]complex128, 129)
	pow := make([]float64, 129)

	rng := rand.New(rand.NewSource(77))
	conv := tcn.NewConv1D("bench.conv", 48, 48, 3, 4, 1)
	for i := range conv.Weight.W {
		conv.Weight.W[i] = float32(rng.NormFloat64())
	}
	x := tcn.NewTensor(48, 128)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	small := tcn.NewTimePPGSmall()
	small.InitWeights(1)
	big := tcn.NewTimePPGBig()
	big.InitWeights(2)
	in := tcn.NewTensor(tcn.InputChannels, tcn.InputSamples)
	for i := range in.Data {
		in.Data[i] = float32(rng.NormFloat64())
	}

	// The int8 deployment form of TimePPG-Big (the path the suite actually
	// profiles) plus a batch of windows for the GEMM-backed kernels.
	var calib []*tcn.Tensor
	for i := 0; i < 8; i++ {
		c := tcn.NewTensor(tcn.InputChannels, tcn.InputSamples)
		for j := range c.Data {
			c.Data[j] = float32(rng.NormFloat64())
		}
		calib = append(calib, c)
	}
	qbig, err := tcn.Quantize(big, calib)
	if err != nil {
		panic("bench: quantizing TimePPG-Big for kernels: " + err.Error())
	}
	qsmall, err := tcn.Quantize(small, calib)
	if err != nil {
		panic("bench: quantizing TimePPG-Small for kernels: " + err.Error())
	}
	const batch = 32
	inB := tcn.NewBatchTensor(batch, tcn.InputChannels, tcn.InputSamples)
	for i := range inB.Data {
		inB.Data[i] = float32(rng.NormFloat64())
	}
	outB := make([]float32, batch)

	// Raw GEMM micro-kernels at a representative TimePPG-Big conv shape:
	// 48 output channels × (48·3) im2col rows × 128 output positions.
	const gm, gk, gn = 48, 144, 128
	ga := make([]float32, gm*gk)
	gb := make([]float32, gk*gn)
	gc := make([]float32, gm*gn)
	for i := range ga {
		ga[i] = float32(rng.NormFloat64())
	}
	for i := range gb {
		gb[i] = float32(rng.NormFloat64())
	}
	sa := make([]int8, gm*gk)
	sb := make([]int8, gk*gn)
	sc := make([]int32, gm*gn)
	for i := range sa {
		sa[i] = int8(rng.Intn(255) - 127)
	}
	for i := range sb {
		sb[i] = int8(rng.Intn(255) - 127)
	}

	// The TimePPG-Big head as one batched S8NT: 28 windows × the 2048-wide
	// flattened map against 84 weight rows — the packed-Bᵀ path, five
	// 16-column panels and a 4-column scalar tail.
	const hm, hk, hn = 28, 2048, 84
	ha := make([]int8, hm*hk)
	hb := make([]int8, hn*hk)
	hc := make([]int32, hm*hn)
	for i := range ha {
		ha[i] = int8(rng.Intn(255) - 127)
	}
	for i := range hb {
		hb[i] = int8(rng.Intn(255) - 127)
	}

	// The int8 epilogue after each S8 GEMM: 8192 int32 accumulators
	// through gemm.RescaleRow (folded bias, float32 multiplier, ReLU
	// floor). Its own source keeps the draws above unchanged.
	const rqn = 8192
	rqRng := rand.New(rand.NewSource(78))
	rqAcc := make([]int32, rqn)
	rqOut := make([]int8, rqn)
	for i := range rqAcc {
		rqAcc[i] = int32(rqRng.Intn(1<<17) - 1<<16)
	}

	// Representative TimePPG-Small final-block GEMM shapes: the underfed
	// per-sample panel (8 channels × 24 im2col rows × 32 positions) and
	// the cross-sample panel a 32-window batch packs (n = 32·32).
	const sm, sk, sn, snWide = 8, 24, 32, 32 * 32
	ga2 := make([]float32, sm*sk)
	gb2 := make([]float32, sk*snWide)
	gc2 := make([]float32, sm*snWide)
	for i := range ga2 {
		ga2[i] = float32(rng.NormFloat64())
	}
	for i := range gb2 {
		gb2[i] = float32(rng.NormFloat64())
	}
	sa2 := make([]int8, sm*sk)
	sb2 := make([]int8, sk*snWide)
	sc2 := make([]int32, sm*snWide)
	for i := range sa2 {
		sa2[i] = int8(rng.Intn(255) - 127)
	}
	for i := range sb2 {
		sb2[i] = int8(rng.Intn(255) - 127)
	}

	// The plan kernels again at 4096 points.
	sig4k := make([]float64, 4096)
	for i := range sig4k {
		sig4k[i] = math.Sin(float64(i) / 3)
	}
	plan4k := dsp.NewPlan(4096)
	spec4k := make([]complex128, 2049)
	pow4k := make([]float64, 2049)

	// One whole SpectralTrack window on a synthetic cardiac-band window.
	est64 := spectral.New()
	specWin := spectralBenchWindow()
	est64.EstimateHR(specWin)

	results := []KernelResult{
		runKernel("RealFFT256/plan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.RealFFTInto(spec, sig)
			}
		}),
		runKernel("PowerSpectrum256/plan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.PowerSpectrumInto(pow, sig)
			}
		}),
		runKernel("PowerSpectrum256/seed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seedPowerSpectrum(sig)
			}
		}),
		runKernel("RealFFT4096/plan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan4k.RealFFTInto(spec4k, sig4k)
			}
		}),
		runKernel("PowerSpectrum4096/plan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan4k.PowerSpectrumInto(pow4k, sig4k)
			}
		}),
		runKernel("SpectralWindow64/f64seed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				est64.EstimateHR(specWin)
			}
		}),
		runKernel("Conv1DForward48x128/opt", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				conv.Forward(x)
			}
		}),
		runKernel("Conv1DForward48x128/seed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seedConvForward(conv, x)
			}
		}),
		runKernel("TimePPGSmallForward", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				small.Forward(in)
			}
		}),
		runKernel("TimePPGBigForward", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				big.Forward(in)
			}
		}),
		// Batched float32 path: per-window cost of the im2col+GEMM kernels
		// over a 32-window batch, next to the serial TimePPGBigForward.
		runKernelScaled("TimePPGBigForwardBatch32/win", batch, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				big.ForwardBatch(inB, outB)
			}
		}),
		// Small-topology batch path: every conv layer rides the wide
		// cross-sample im2col lowering (TimePPGSmallForward above is the
		// serial reference).
		runKernelScaled("TimePPGSmallForwardBatch32/win", batch, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				small.ForwardBatch(inB, outB)
			}
		}),
		// Int8 deployed path: the serial qConv kernels (the seed-equivalent
		// reference) against the batched int8 GEMM form.
		runKernel("QuantBigForward/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qbig.Forward(in)
			}
		}),
		runKernelScaled("QuantBigForwardBatch32/win", batch, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qbig.ForwardBatch(inB, outB)
			}
		}),
		// Deployed int8 TimePPG-Small (the wearable-side network): serial
		// reference vs the cross-sample batch path.
		runKernel("QuantSmallForward/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qsmall.Forward(in)
			}
		}),
		runKernelScaled("QuantSmallForwardBatch32/win", batch, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qsmall.ForwardBatch(inB, outB)
			}
		}),
		// Raw GEMM micro-kernels (float32 and CMSIS-NN-style int8): the
		// TimePPG-Big conv shape and its int8 requantize epilogue, the
		// TimePPG-Big head (int8 Bᵀ form), and the TimePPG-Small
		// final-block shape per-sample and at the cross-sample width.
		runKernel("GemmF32_48x144x128", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemm.F32(gc, ga, gb, gm, gk, gn)
			}
		}),
		runKernel("GemmS8_48x144x128", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemm.S8(sc, sa, sb, gm, gk, gn)
			}
		}),
		runKernel("RequantS8_8192", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemm.RescaleRow(rqOut, rqAcc, 77, 0.0013, 0)
			}
		}),
		runKernel("GemmS8NT_28x2048x84", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemm.S8NT(hc, ha, hb, hm, hk, hn)
			}
		}),
		runKernel("GemmF32_8x24x32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemm.F32(gc2, ga2, gb2, sm, sk, sn)
			}
		}),
		runKernel("GemmF32_8x24x1024", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemm.F32(gc2, ga2, gb2, sm, sk, snWide)
			}
		}),
		runKernel("GemmS8_8x24x32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemm.S8(sc2, sa2, sb2, sm, sk, sn)
			}
		}),
		runKernel("GemmS8_8x24x1024", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemm.S8(sc2, sa2, sb2, sm, sk, snWide)
			}
		}),
	}
	results = append(results, cacheKernels()...)
	results = append(results, simKernels()...)
	results = append(results, fleetKernels()...)
	results = append(results, beliefKernels()...)
	return append(results, serveKernels()...)
}

// cacheRecordCount sizes the record-cache kernels: large enough that a
// full decode costs measurably more than the first record, small enough
// to keep the benchmark I/O trivial (~130 KiB per file).
const cacheRecordCount = 4096

// cacheKernels measures the columnar record cache: bulk encode, bulk
// decode, streaming iteration, and — the number the format exists for —
// decode-to-first-record latency, where the reader touches one header and
// one block.
func cacheKernels() []KernelResult {
	recs := cacheSampleRecords(cacheRecordCount)
	dir, err := os.MkdirTemp("", "chris-cache-kernels-*")
	if err != nil {
		panic("bench: cache kernel temp dir: " + err.Error())
	}
	defer os.RemoveAll(dir)

	colPath := filepath.Join(dir, "records.chrc")
	if err := saveRecords(colPath, recs); err != nil {
		panic("bench: cache kernel columnar seed: " + err.Error())
	}
	encPath := filepath.Join(dir, "encode.tmp")

	return []KernelResult{
		runKernelScaled("CacheEncode4096x3/columnar", cacheRecordCount, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := saveRecords(encPath, recs); err != nil {
					b.Fatal(err)
				}
			}
		}),
		runKernelScaled("CacheDecode4096x3/columnar", cacheRecordCount, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := loadRecords(colPath, cacheRecordCount); err != nil {
					b.Fatal(err)
				}
			}
		}),
		// Decode-to-first-record latency, unscaled: open the cache and
		// obtain one usable record.
		runKernel("CacheFirstRecord/columnar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := reccache.Open(colPath)
				if err != nil {
					b.Fatal(err)
				}
				got := false
				err = r.Iter(func(_ int, rec *core.WindowRecord) bool {
					got = rec.TrueHR > 0
					return false
				})
				r.Close()
				if err != nil || !got {
					b.Fatal("no first record")
				}
			}
		}),
		runKernelScaled("CacheIterate4096x3/columnar", cacheRecordCount, func(b *testing.B) {
			r, err := reccache.Open(colPath)
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var sum float64
				if err := r.Iter(func(_ int, rec *core.WindowRecord) bool {
					sum += rec.Preds[0]
					return true
				}); err != nil {
					b.Fatal(err)
				}
				if sum == 0 {
					b.Fatal("empty iteration")
				}
			}
		}),
	}
}

// spectralBenchWindow synthesizes one cardiac-band window (88 BPM PPG
// over mild wrist motion, enough to engage the artifact mask) for the
// whole-estimator spectral kernels.
func spectralBenchWindow() *dalia.Window {
	const n, rate = 256, 32.0
	w := &dalia.Window{PPG: make([]float64, n), AccelX: make([]float64, n),
		AccelY: make([]float64, n), AccelZ: make([]float64, n), Rate: rate}
	for i := range w.PPG {
		ts := float64(i) / rate
		w.PPG[i] = math.Sin(2*math.Pi*1.47*ts) + 0.2*math.Sin(2*math.Pi*2.94*ts)
		w.AccelX[i] = 0.1 * math.Sin(2*math.Pi*0.9*ts)
		w.AccelY[i] = 0.05 * math.Cos(2*math.Pi*0.9*ts)
		w.AccelZ[i] = 1 + 0.02*math.Sin(2*math.Pi*1.8*ts)
	}
	return w
}

func cacheSampleRecords(n int) []core.WindowRecord {
	header := core.NewRecordHeader("AT", "TimePPG-Small", "TimePPG-Big")
	rng := rand.New(rand.NewSource(42))
	flat := make([]float64, n*3)
	recs := make([]core.WindowRecord, n)
	for i := range recs {
		for j := 0; j < 3; j++ {
			flat[i*3+j] = 60 + 120*rng.Float64()
		}
		recs[i] = core.WindowRecord{
			TrueHR:     60 + 120*rng.Float64(),
			Activity:   dalia.Activity(rng.Intn(dalia.NumActivities)),
			Difficulty: 1 + rng.Intn(9),
			Header:     header,
			Preds:      flat[i*3 : (i+1)*3 : (i+1)*3],
		}
	}
	return recs
}

// seedPowerSpectrum reproduces the pre-plan spectral path: a full complex
// FFT with per-stage cmplx.Exp twiddle recurrence and two allocations per
// call.
func seedPowerSpectrum(x []float64) []float64 {
	buf := make([]complex128, len(x))
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	n := len(buf)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		wStep := cmplx.Exp(complex(0, -2*math.Pi/float64(size)))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := buf[start+k]
				b := buf[start+k+half] * w
				buf[start+k] = a + b
				buf[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	out := make([]float64, n/2+1)
	for i := range out {
		re, im := real(buf[i]), imag(buf[i])
		out[i] = re*re + im*im
	}
	return out
}

// seedConvForward reproduces the pre-optimization convolution: per-sample
// padding bounds checks in the innermost loop and a fresh output tensor
// per call.
func seedConvForward(l *tcn.Conv1D, x *tcn.Tensor) *tcn.Tensor {
	_, outT := l.OutShape(x.C, x.T)
	y := tcn.NewTensor(l.OutC, outT)
	total := (l.Kernel - 1) * l.Dilation
	padL := total - total/2
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
