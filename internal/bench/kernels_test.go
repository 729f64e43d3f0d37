package bench

import "testing"

var kernelSink []byte

// TestRunKernelScaledFractionalAllocs pins the ledger's per-window
// allocation figures as fractions: one allocation per op over a run of
// 1,800 windows (a simulated hour) must report about 1/1800, far below the
// 1 that one allocation per window reports.
func TestRunKernelScaledFractionalAllocs(t *testing.T) {
	const scale = 1800
	r := runKernelScaled("alloc-once", scale, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernelSink = make([]byte, 64)
		}
	})
	if r.AllocsPerOp <= 0 || r.AllocsPerOp > 2.0/scale {
		t.Errorf("allocs_per_op = %v, want about %v", r.AllocsPerOp, 1.0/scale)
	}
	if r.BytesPerOp <= 0 || r.BytesPerOp > 2*64.0/scale {
		t.Errorf("bytes_per_op = %v, want about %v", r.BytesPerOp, 64.0/scale)
	}
}
