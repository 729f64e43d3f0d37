package gemm

import "sync"

// F32NT's asm path runs C += A·Bᵀ through the plain column kernels by
// first packing B (n×k row-major) into a k×n panel — after the transpose,
// walking the packed panel's rows in ascending p visits exactly the
// operands B[j][p] of the dot-product form, so the per-element
// accumulation chain (and with it float32 bitwise reproducibility) is
// untouched. (The int8 operands are packed by their callers, into the
// PackedA and Panels they own: panels.go.) Panels come from a free list
// so concurrent record-builder and trainer goroutines each get their own
// scratch with zero steady-state allocations.

// bufStack is a minimal LIFO free list for the packing panels. It is
// deliberately not a sync.Pool: the pool drops entries randomly under the
// race detector and empties on GC, either of which would make the
// AllocsPerRun guard on F32NT flaky. Entries live until
// ReleaseScratch — the working set is bounded by peak GEMM concurrency
// times the largest panel, the same lifetime the per-layer arenas have.
type bufStack struct {
	mu   sync.Mutex
	free [][]float32
}

// get returns a panel with at least n elements (length n).
func (s *bufStack) get(n int) []float32 {
	s.mu.Lock()
	var buf []float32
	if len(s.free) > 0 {
		buf = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	}
	s.mu.Unlock()
	if cap(buf) < n {
		buf = make([]float32, n)
	}
	return buf[:n]
}

// put hands a panel back for reuse.
func (s *bufStack) put(buf []float32) {
	s.mu.Lock()
	s.free = append(s.free, buf)
	s.mu.Unlock()
}

// release drops the parked panels; panels in use return to the emptied
// list as usual.
func (s *bufStack) release() {
	s.mu.Lock()
	clear(s.free)
	s.free = nil
	s.mu.Unlock()
}

var f32PackPool bufStack

// ReleaseScratch drops every packing panel parked on the free list. A
// phase whose GEMMs are much wider than what follows calls it when done,
// so the process does not keep that phase's peak panels for its lifetime:
// tcn.Fit does, because training batches pack panels that inference
// never needs again, and so does tcn.Quantize's calibration pass, whose
// float32 dense panels the int8 network never uses. Later calls allocate
// fresh panels on first use.
func ReleaseScratch() {
	f32PackPool.release()
}

// packBlock tiles the transpose so both the contiguous reads and the
// strided writes stay within a cache-resident square.
const packBlock = 32

// transposeInto writes the transpose of src (rows×cols, row-major) into
// dst (cols×rows, row-major): dst[c*rows+r] = src[r*cols+c].
func transposeInto(dst, src []float32, rows, cols int) {
	for r0 := 0; r0 < rows; r0 += packBlock {
		r1 := r0 + packBlock
		if r1 > rows {
			r1 = rows
		}
		for c0 := 0; c0 < cols; c0 += packBlock {
			c1 := c0 + packBlock
			if c1 > cols {
				c1 = cols
			}
			for r := r0; r < r1; r++ {
				row := src[r*cols : r*cols+cols]
				for c := c0; c < c1; c++ {
					dst[c*rows+r] = row[c]
				}
			}
		}
	}
}
