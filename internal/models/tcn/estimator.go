package tcn

import (
	"fmt"
	"unsafe"

	"repro/internal/dalia"
	"repro/internal/models"
)

// HRNet adapts a trained network to the models.HREstimator interface, in
// float or int8-quantized form. It is not safe for concurrent use (layer
// activation caches are reused between calls); clone one per goroutine.
type HRNet struct {
	net  *Network
	qnet *QuantNetwork
	// UseQuantized selects the int8 path when a quantized form exists.
	UseQuantized bool

	inB *BatchTensor // reused batched-input tensor
	zB  []float32    // reused batched-output buffer
	one [1]float64   // EstimateHR's batch-of-one output
}

// NewEstimator wraps a trained float network.
func NewEstimator(net *Network) *HRNet { return &HRNet{net: net} }

// Quantize builds the int8 deployment form using the calibration windows
// and enables it.
func (h *HRNet) Quantize(calib []*Tensor) error {
	q, err := Quantize(h.net, calib)
	if err != nil {
		return err
	}
	h.qnet = q
	h.UseQuantized = true
	return nil
}

// Quantized reports whether the int8 path is active.
func (h *HRNet) Quantized() bool { return h.UseQuantized && h.qnet != nil }

// Network returns the underlying float network.
func (h *HRNet) Network() *Network { return h.net }

// Name implements models.HREstimator.
func (h *HRNet) Name() string { return h.net.Topology }

// Ops implements models.HREstimator (MACs per inference).
func (h *HRNet) Ops() int64 { return h.net.MACs() }

// Params implements models.HREstimator.
func (h *HRNet) Params() int64 { return h.net.NumParams() }

// EstimateHR implements models.HREstimator: the window runs as a batch
// of one through EstimateHRBatch, so the single-window estimate is the
// batched one by construction. The batch is a one-element view of the
// caller's window, so the estimator holds no reference to it.
func (h *HRNet) EstimateHR(w *dalia.Window) float64 {
	h.EstimateHRBatch(unsafe.Slice(w, 1), h.one[:])
	return h.one[0]
}

// batchChunk bounds how many windows one batched forward pass carries.
// Chunking keeps the per-layer im2col and activation arenas cache-sized no
// matter how many windows the caller hands over, while still amortizing
// the per-layer dispatch and weight traffic across the chunk.
const batchChunk = 32

// EstimateHRBatch implements models.BatchHREstimator: windows flow through
// the GEMM-backed batch kernels in chunks of batchChunk. Every estimate is
// independent of the window's batch-mates (bitwise identical to EstimateHR
// on the same window); after the first call the path performs no heap
// allocations.
func (h *HRNet) EstimateHRBatch(ws []dalia.Window, out []float64) {
	for start := 0; start < len(ws); start += batchChunk {
		end := start + batchChunk
		if end > len(ws) {
			end = len(ws)
		}
		n := end - start
		t := len(ws[start].PPG)
		xb := ensureBatchTensor(&h.inB, n, InputChannels, t)
		for i := 0; i < n; i++ {
			if len(ws[start+i].PPG) != t {
				panic(fmt.Sprintf("tcn: batch window %d has %d samples, chunk expects %d",
					start+i, len(ws[start+i].PPG), t))
			}
			s := xb.SampleTensor(i)
			WindowIntoTensor(&s, &ws[start+i])
		}
		zs := ensureSlice(&h.zB, n)
		if h.Quantized() {
			h.qnet.ForwardBatch(xb, zs)
		} else {
			h.net.ForwardBatch(xb, zs)
		}
		for i, z := range zs {
			out[start+i] = models.ClampHR(DenormalizeHR(z))
		}
	}
}

// Clone returns an estimator sharing weights (float and int8) but owning
// private activation buffers, for concurrent evaluation.
func (h *HRNet) Clone() *HRNet {
	c := &HRNet{net: h.net.CloneForWorker(), UseQuantized: h.UseQuantized}
	if h.qnet != nil {
		c.qnet = h.qnet.CloneForWorker()
	}
	return c
}

// CloneEstimator implements models.WorkerCloner, enabling the parallel
// record builder to fan TCN inference out across goroutines.
func (h *HRNet) CloneEstimator() models.HREstimator { return h.Clone() }

var (
	_ models.HREstimator      = (*HRNet)(nil)
	_ models.WorkerCloner     = (*HRNet)(nil)
	_ models.BatchHREstimator = (*HRNet)(nil)
)

// String summarizes the estimator.
func (h *HRNet) String() string {
	mode := "float32"
	if h.Quantized() {
		mode = "int8"
	}
	return fmt.Sprintf("%s(%s, %d params, %d MACs)", h.Name(), mode, h.Params(), h.Ops())
}
