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
// references, so every perf PR leaves a comparable datapoint behind. Note
// says what a kernel measures where its name alone would mislead.
type KernelResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Note        string  `json:"note,omitempty"`
}

// s8PerCallNote marks the int8 GEMM kernels: they time per-call work on
// weights packed once outside the loop.
const s8PerCallNote = "pre-packed weights: GemmS8_* is PackRows (the conv im2col) + " +
	"S8Panels, the int32 product alone (the int8 convolutions run the fused " +
	"ConvS8_* step instead); GemmS8NT_* is PackA (the head's activations) + " +
	"S8Panels against PackBT weight panels, as the int8 head runs it"

// s8ConvNote marks the fused int8 convolution step.
const s8ConvNote = "the int8 convolution's per-call step as the layers run it: " +
	"PackRows (the im2col) + S8Rescale (product, bias, per-channel multiplier " +
	"and fused ReLU, stored as int8 rows) on pre-packed weights"

// withNote returns r annotated with note.
func withNote(r KernelResult, note string) KernelResult {
	r.Note = note
	return r
}

func runKernel(name string, fn func(b *testing.B)) KernelResult {
	return runKernelScaled(name, 1, fn)
}

// runKernelScaled divides every measurement by scale, so a benchmark body
// that processes a whole batch per iteration still reports per-window
// numbers comparable with its serial counterpart. Allocations and bytes
// are unrounded fractions per window: a run that allocates 7 times over
// 1,800 windows reports 7/1800, not the 1 a per-window allocation would.
func runKernelScaled(name string, scale int, fn func(b *testing.B)) KernelResult {
	r := testing.Benchmark(fn)
	per := float64(r.N) * float64(scale)
	return KernelResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N) / float64(scale),
		AllocsPerOp: float64(r.MemAllocs) / per,
		BytesPerOp:  float64(r.MemBytes) / per,
	}
}

// KernelBenchmarks measures the DSP and TCN kernels this repository
// optimizes: the spectrum against the seed implementation it replaced,
// the TCNs at one window against a 32-window batch.
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
	x := tcn.NewBatchTensor(1, 48, 128)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	small := tcn.NewTimePPGSmall()
	small.InitWeights(1)
	big := tcn.NewTimePPGBig()
	big.InitWeights(2)
	// A batch of one: the path a single-window EstimateHR takes.
	inOne := tcn.NewBatchTensor(1, tcn.InputChannels, tcn.InputSamples)
	for i := range inOne.Data {
		inOne.Data[i] = float32(rng.NormFloat64())
	}
	outOne := make([]float32, 1)

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
	// The int8 form packs A (the weights) once and B (the im2col) from
	// its rows on every call, as the int8 conv does.
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
	for i := range sa {
		sa[i] = int8(rng.Intn(255) - 127)
	}
	for i := range sb {
		sb[i] = int8(rng.Intn(255) - 127)
	}
	sconv := newS8ConvKernel(sa, sb, gm, gk, gn)

	// The TimePPG-Big head shape as one batched product: 28 windows × the
	// 2048-wide flattened map against 84 weight rows, packed once into six
	// zero-padded panels as the int8 head packs them.
	const hm, hk, hn = 28, 2048, 84
	ha := make([]int8, hm*hk)
	hb := make([]int8, hn*hk)
	for i := range ha {
		ha[i] = int8(rng.Intn(255) - 127)
	}
	for i := range hb {
		hb[i] = int8(rng.Intn(255) - 127)
	}
	var hw gemm.Panels
	gemm.PackBT(&hw, hb, hn, hk)
	var hin gemm.PackedA
	hldc := (hn + gemm.PanelCols - 1) / gemm.PanelCols * gemm.PanelCols
	hc := make([]int32, hm*hldc)

	// The int8 epilogue after each int8 GEMM: 8192 int32 accumulators
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
	for i := range sa2 {
		sa2[i] = int8(rng.Intn(255) - 127)
	}
	for i := range sb2 {
		sb2[i] = int8(rng.Intn(255) - 127)
	}
	sconv2 := newS8ConvKernel(sa2, sb2[:sk*sn], sm, sk, sn)
	sconv2Wide := newS8ConvKernel(sa2, sb2, sm, sk, snWide)

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
		// Float32 path: one window (a batch of one, as EstimateHR runs
		// it) through a TimePPG-Big mid-block conv and through each whole
		// network, against the per-window cost of a 32-window batch.
		runKernel("Conv1DForward48x128/one", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				conv.ForwardBatch(x)
			}
		}),
		runKernel("TimePPGSmallForward/one", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				small.ForwardBatch(inOne, outOne)
			}
		}),
		runKernel("TimePPGBigForward/one", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				big.ForwardBatch(inOne, outOne)
			}
		}),
		runKernelScaled("TimePPGBigForwardBatch32/win", batch, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				big.ForwardBatch(inB, outB)
			}
		}),
		// Small-topology batch path: every conv layer rides the wide
		// cross-sample im2col lowering, which a batch of one never takes.
		runKernelScaled("TimePPGSmallForwardBatch32/win", batch, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				small.ForwardBatch(inB, outB)
			}
		}),
		// Int8 deployed path: one window (a batch of one, as EstimateHR
		// runs it) against the per-window cost of a 32-window batch.
		runKernel("QuantBigForward/one", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qbig.ForwardBatch(inOne, outOne)
			}
		}),
		runKernelScaled("QuantBigForwardBatch32/win", batch, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qbig.ForwardBatch(inB, outB)
			}
		}),
		// Deployed int8 TimePPG-Small (the wearable-side network): one
		// window vs the cross-sample batch path.
		runKernel("QuantSmallForward/one", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qsmall.ForwardBatch(inOne, outOne)
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
		withNote(runKernel("GemmS8_48x144x128", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sconv.run()
			}
		}), s8PerCallNote),
		withNote(runKernel("ConvS8_48x144x128", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sconv.rescale()
			}
		}), s8ConvNote),
		runKernel("RequantS8_8192", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemm.RescaleRow(rqOut, rqAcc, 77, 0.0013, 0)
			}
		}),
		withNote(runKernel("GemmS8NT_28x2048x84", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemm.PackA(&hin, ha, hm, hk)
				gemm.S8Panels(hc, hldc, &hin, &hw)
			}
		}), s8PerCallNote),
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
		withNote(runKernel("GemmS8_8x24x32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sconv2.run()
			}
		}), s8PerCallNote),
		withNote(runKernel("GemmS8_8x24x1024", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sconv2Wide.run()
			}
		}), s8PerCallNote),
	}
	results = append(results, cacheKernels()...)
	results = append(results, simKernels()...)
	results = append(results, fleetKernels()...)
	results = append(results, beliefKernels()...)
	return append(results, serveKernels()...)
}

// s8ConvKernel is one int8 GEMM A·B (A m×k, B k×n with n a multiple of
// 16) on the int8 convolution's operands: A packed once, B packed from
// its rows by PackRows on every call, then either the plain product
// C += A·B (run) or the convolution's fused step into int8 rows
// (rescale).
type s8ConvKernel struct {
	a    gemm.PackedA
	b    gemm.Panels
	src  []int8
	offs []int
	c    []int32
	np   int

	q    []int8
	bias []int32
	mult []float32
}

func newS8ConvKernel(a, b []int8, m, k, n int) *s8ConvKernel {
	s := &s8ConvKernel{
		src: b, offs: make([]int, k), c: make([]int32, m*n), np: n / gemm.PanelCols,
		q: make([]int8, m*n), bias: make([]int32, m), mult: make([]float32, m),
	}
	gemm.PackA(&s.a, a, m, k)
	for p := range s.offs {
		s.offs[p] = p * n
	}
	for o := range s.mult {
		s.bias[o], s.mult[o] = int32(o*37-500), 1e-4
	}
	s.b.Resize(k, s.np)
	return s
}

func (s *s8ConvKernel) run() {
	gemm.PackRows(&s.b, 0, s.src, s.offs, 1, s.np)
	gemm.S8Panels(s.c, s.np*gemm.PanelCols, &s.a, &s.b)
}

func (s *s8ConvKernel) rescale() {
	n := s.np * gemm.PanelCols
	gemm.PackRows(&s.b, 0, s.src, s.offs, 1, s.np)
	gemm.S8Rescale(s.q, n, n, &s.a, &s.b, s.bias, s.mult, 0)
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
