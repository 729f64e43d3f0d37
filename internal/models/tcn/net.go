package tcn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Network is an ordered stack of layers with a scalar regression head.
//
// Layers reuse their output and gradient batches between calls (a
// layer-local scratch arena whose capacity only grows), so once a batch
// of the largest size has run, a forward or backward pass performs zero
// heap allocations — and a network instance must not be shared between
// goroutines; use CloneForWorker for data-parallel work.
type Network struct {
	Topology string // e.g. "TimePPG-Small"
	InC, InT int
	Layers   []Layer

	outGrad *BatchTensor // reused seed batch for BackwardBatch
}

// Params returns all learnable parameters in a stable order.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumParams counts scalar parameters.
func (n *Network) NumParams() int64 {
	var total int64
	for _, p := range n.Params() {
		total += int64(len(p.W))
	}
	return total
}

// MACs returns the multiply-accumulate count of one forward pass.
func (n *Network) MACs() int64 {
	c, t := n.InC, n.InT
	var total int64
	for _, l := range n.Layers {
		total += l.MACs(c, t)
		c, t = l.OutShape(c, t)
	}
	return total
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// CloneForWorker builds a worker copy: weights shared, gradients and
// activation caches private.
func (n *Network) CloneForWorker() *Network {
	c := &Network{Topology: n.Topology, InC: n.InC, InT: n.InT}
	for _, l := range n.Layers {
		c.Layers = append(c.Layers, l.CloneForWorker())
	}
	return c
}

// InitWeights applies He initialization to conv and dense weights using the
// given deterministic source.
func (n *Network) InitWeights(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Conv1D:
			fanIn := float64(v.InC * v.Kernel)
			std := math.Sqrt(2 / fanIn)
			for i := range v.Weight.W {
				v.Weight.W[i] = float32(rng.NormFloat64() * std)
			}
			for i := range v.Bias.W {
				v.Bias.W[i] = 0
			}
		case *Dense:
			fanIn := float64(v.In)
			std := math.Sqrt(2 / fanIn)
			for i := range v.Weight.W {
				v.Weight.W[i] = float32(rng.NormFloat64() * std)
			}
			for i := range v.Bias.W {
				v.Bias.W[i] = 0
			}
		}
	}
}

// Describe returns a human-readable per-layer summary (shape, params,
// MACs) used by cmd/trainppg and the documentation.
func (n *Network) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  input %d×%d\n", n.Topology, n.InC, n.InT)
	c, t := n.InC, n.InT
	var macs, params int64
	for _, l := range n.Layers {
		oc, ot := l.OutShape(c, t)
		m := l.MACs(c, t)
		var p int64
		for _, par := range l.Params() {
			p += int64(len(par.W))
		}
		fmt.Fprintf(&b, "  %-18s %4d×%-4d → %4d×%-4d  params %-7d MACs %d\n",
			l.Name(), c, t, oc, ot, p, m)
		macs += m
		params += p
		c, t = oc, ot
	}
	fmt.Fprintf(&b, "  total: params %d, MACs %d\n", params, macs)
	return b.String()
}
