package gemm

import "sync"

// F32NT's asm path runs C += A·Bᵀ through the plain column kernels by
// first packing B (n×k row-major) into a k×n panel — after the transpose,
// walking the packed panel's rows in ascending p visits exactly the
// operands B[j][p] of the dot-product form, so the per-element
// accumulation chain (and with it float32 bitwise reproducibility) is
// untouched. The int8 kernels pack both operands into int16 pair panels
// instead (gemm_amd64.go). Panels come from free lists so concurrent
// record-builder and trainer goroutines each get their own scratch with
// zero steady-state allocations.

// bufStack is a minimal LIFO free list for the packing panels. It is
// deliberately not a sync.Pool: the pool drops entries randomly under the
// race detector and empties on GC, either of which would make the
// AllocsPerRun guards on the NT paths flaky. Entries live as long as the
// process — the working set is bounded by peak GEMM concurrency times the
// largest panel, the same lifetime the per-layer arenas already have.
type bufStack[T any] struct {
	mu   sync.Mutex
	free [][]T
}

// get returns a panel with at least n elements (length n).
func (s *bufStack[T]) get(n int) []T {
	s.mu.Lock()
	var buf []T
	if len(s.free) > 0 {
		buf = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	}
	s.mu.Unlock()
	if cap(buf) < n {
		buf = make([]T, n)
	}
	return buf[:n]
}

// put hands a panel back for reuse.
func (s *bufStack[T]) put(buf []T) {
	s.mu.Lock()
	s.free = append(s.free, buf)
	s.mu.Unlock()
}

var (
	f32PackPool bufStack[float32]
	s8PanelPool bufStack[int16]
)

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
