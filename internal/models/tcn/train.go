package tcn

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/dalia"
	"repro/internal/gemm"
)

// Sample is one training example: an input tensor and its BPM label.
type Sample struct {
	X  *Tensor
	HR float64
}

// WindowToTensor converts an analysis window into the 4×256 network input
// (PPG, accel X, Y, Z).
func WindowToTensor(w *dalia.Window) *Tensor {
	x := NewTensor(InputChannels, len(w.PPG))
	WindowIntoTensor(x, w)
	return x
}

// WindowIntoTensor fills an existing InputChannels×len(w.PPG) tensor from
// the window, the allocation-free form used by reusable-input estimators.
func WindowIntoTensor(x *Tensor, w *dalia.Window) {
	for i, v := range w.PPG {
		x.Data[i] = float32(v)
	}
	t := len(w.PPG)
	for i, v := range w.AccelX {
		x.Data[t+i] = float32(v)
	}
	for i, v := range w.AccelY {
		x.Data[2*t+i] = float32(v)
	}
	for i, v := range w.AccelZ {
		x.Data[3*t+i] = float32(v)
	}
}

// WindowsToSamples converts windows into training samples.
func WindowsToSamples(ws []dalia.Window) []Sample {
	out := make([]Sample, len(ws))
	for i := range ws {
		out[i] = Sample{X: WindowToTensor(&ws[i]), HR: ws[i].TrueHR}
	}
	return out
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	// Workers bounds the data-parallel fan-out; 0 uses GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line per epoch.
	Progress func(epoch int, trainLoss float64)
	// LRDecay multiplies the learning rate after each epoch (1 = none).
	LRDecay float64
}

// DefaultTrainConfig returns the configuration used by the experiment
// harness. Small batches trade parallel efficiency for many more Adam
// steps, which converges far faster on the HR-regression task.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 12, BatchSize: 8, LR: 4e-3, Seed: 42, LRDecay: 0.9}
}

// Fit trains the network in place with Adam on Huber loss. Each worker
// forwards and backwards its contiguous slice of every mini-batch through
// the GEMM-backed batch kernels, and the per-batch gradient reduction and
// Adam update are fused into a single parallel pass over parameter shards
// (Adam.StepFused). Training is deterministic in (cfg.Seed, worker count):
// workers own contiguous batch slices, the fused reduction follows worker
// order per element, and shard boundaries cannot change results because
// every element is updated independently. Different worker counts change
// the summation order and may differ in the last bits, as may the batched
// kernels' weight-gradient association relative to sample-at-a-time
// backpropagation.
func Fit(net *Network, train []Sample, cfg TrainConfig) (finalLoss float64, err error) {
	if len(train) == 0 {
		return 0, fmt.Errorf("tcn: empty training set")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.LRDecay <= 0 {
		cfg.LRDecay = 1
	}
	// Training packs the widest float32 panels the process will see;
	// inference never reuses them, so they are not kept past Fit.
	defer gemm.ReleaseScratch()

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.BatchSize {
		workers = cfg.BatchSize
	}

	opt := NewAdam(net.Params(), cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Worker clones share weights with net but own gradient buffers.
	clones := make([]*Network, workers)
	cloneParams := make([][]*Param, workers)
	for i := range clones {
		clones[i] = net.CloneForWorker()
		cloneParams[i] = clones[i].Params()
	}

	// Per-worker batch arenas: the input batch, the forward outputs and the
	// per-sample loss gradients seeding the backward pass.
	xbs := make([]*BatchTensor, workers)
	outBufs := make([][]float32, workers)
	gradBufs := make([][]float32, workers)

	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			losses := make([]float64, workers)
			var wg sync.WaitGroup
			for wi := 0; wi < workers; wi++ {
				lo := wi * len(batch) / workers
				hi := (wi + 1) * len(batch) / workers
				if lo == hi {
					continue
				}
				wg.Add(1)
				go func(wi, lo, hi int) {
					defer wg.Done()
					c := clones[wi]
					n := hi - lo
					first := train[batch[lo]].X
					xb := ensureBatchTensor(&xbs[wi], n, first.C, first.T)
					sz := first.C * first.T
					for bi, idx := range batch[lo:hi] {
						if train[idx].X.Numel() != sz {
							panic(fmt.Sprintf("tcn: sample %d has %d elements, batch expects %d",
								idx, train[idx].X.Numel(), sz))
						}
						copy(xb.Sample(bi), train[idx].X.Data)
					}
					outs := ensureSlice(&outBufs[wi], n)
					c.ForwardBatch(xb, outs)
					grads := ensureSlice(&gradBufs[wi], n)
					var sum float64
					for bi, idx := range batch[lo:hi] {
						loss, grad := HuberLoss(outs[bi], NormalizeHR(train[idx].HR))
						sum += float64(loss)
						grads[bi] = grad
					}
					c.BackwardBatch(grads)
					losses[wi] = sum
				}(wi, lo, hi)
			}
			wg.Wait()
			// Fused, deterministic reduce+update: worker gradients are
			// summed in worker order per element and the Adam step applied
			// in the same parallel pass.
			opt.StepFused(cloneParams, 1/float32(len(batch)))
			for wi := 0; wi < workers; wi++ {
				epochLoss += losses[wi]
			}
			batches++
		}
		epochLoss /= float64(len(order))
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss)
		}
		opt.LR *= cfg.LRDecay
		finalLoss = epochLoss
	}
	return finalLoss, nil
}

// Evaluate returns the MAE in BPM of the network over the samples. It runs
// the batched forward path in chunks; because a window's output does not
// depend on its batch-mates, the reported MAE does not depend on the
// chunking (raw denormalized outputs, no physiological clamp).
func Evaluate(net *Network, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var xbSlot *BatchTensor
	var outs []float32
	var sum float64
	for start := 0; start < len(samples); start += batchChunk {
		end := start + batchChunk
		if end > len(samples) {
			end = len(samples)
		}
		n := end - start
		first := samples[start].X
		xb := ensureBatchTensor(&xbSlot, n, first.C, first.T)
		for i := 0; i < n; i++ {
			s := samples[start+i]
			if s.X.Numel() != first.Numel() {
				panic(fmt.Sprintf("tcn: sample %d has %d elements, batch expects %d",
					start+i, s.X.Numel(), first.Numel()))
			}
			copy(xb.Sample(i), s.X.Data)
		}
		outs = ensureSlice(&outs, n)
		net.ForwardBatch(xb, outs)
		for i := 0; i < n; i++ {
			d := DenormalizeHR(outs[i]) - samples[start+i].HR
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum / float64(len(samples))
}
