package tcn

import (
	"fmt"
	"math"
	"os"

	"repro/internal/snapshot"
)

// A weight file is one snapshot.KindWeights frame, so framing, the CRC
// and typed rejection (snapshot.ErrCorrupt, snapshot.ErrStale) come from
// internal/snapshot. Payload, in order: the topology name, the parameter
// count, then per parameter its name and float32 values. Weights are
// matched to the freshly built topology by order and name, so a file can
// only be loaded into the topology that produced it; the frame's config
// hash is 0, because the topology name is what binds it.

// Save writes the network's parameters to path. The write is crash-safe
// (snapshot.WriteFile): an interrupted run can never leave a truncated
// weight file behind, which would poison every later cache load.
func Save(n *Network, path string) error {
	return snapshot.WriteFile(path, encode(n))
}

// encode returns the network's weight frame: the bytes Save writes.
func encode(n *Network) []byte {
	params := n.Params()
	w := snapshot.NewWriter(snapshot.KindWeights, 0)
	w.String(n.Topology)
	w.U64(uint64(len(params)))
	for _, p := range params {
		w.String(p.Name)
		w.F32s(p.W)
	}
	return w.Finish()
}

// Load reads a weight file and returns a network of the stored topology.
// Besides the frame's own checks it rejects an unknown topology, a
// parameter count, name order or element count that does not match that
// topology, and non-finite weights, all as snapshot.ErrCorrupt. The
// returned network keeps no reference to the file's bytes.
func Load(path string) (*Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	net, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("tcn: %s: %w", path, err)
	}
	return net, nil
}

// decode parses a weight frame held in memory, with every check Load
// documents; Load prefixes its errors with the file's path.
func decode(data []byte) (*Network, error) {
	r, err := snapshot.Open(data, snapshot.KindWeights, 0)
	if err != nil {
		return nil, err
	}
	corrupt := func(format string, args ...interface{}) error {
		return fmt.Errorf("%w: %s", snapshot.ErrCorrupt, fmt.Sprintf(format, args...))
	}
	topology := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var net *Network
	switch topology {
	case SmallName:
		net = NewTimePPGSmall()
	case BigName:
		net = NewTimePPGBig()
	default:
		return nil, corrupt("unknown topology %q", topology)
	}
	params := net.Params()
	if count := r.U64(); r.Err() == nil && count != uint64(len(params)) {
		return nil, corrupt("%d params, topology needs %d", count, len(params))
	}
	for _, p := range params {
		name := r.String()
		w := r.F32s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if name != p.Name {
			return nil, corrupt("parameter order mismatch: file %q, topology %q", name, p.Name)
		}
		if len(w) != len(p.W) {
			return nil, corrupt("parameter %q has %d elements, want %d", name, len(w), len(p.W))
		}
		for i, v := range w {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return nil, corrupt("parameter %q element %d is not finite", name, i)
			}
		}
		copy(p.W, w)
	}
	// A weight file is exactly its parameters: trailing payload bytes
	// mean it was written by something else, so refuse it rather than
	// silently ignoring the tail.
	if err := r.Done(); err != nil {
		return nil, err
	}
	return net, nil
}
