package bench

import (
	"testing"

	"repro/internal/dalia"
)

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

// keyRater rates a window by its (Subject, Start) key, so two subjects'
// windows at the same offset get different verdicts.
type keyRater struct{}

func (keyRater) DifficultyID(w *dalia.Window) int { return 1 + (7*w.Subject+w.Start/3)%9 }

// TestSimRaterKeysBySubjectAndStart pins the sim kernels' precomputed
// rater to the rater it was built from on every window, for two subjects
// whose windows share Start offsets.
func TestSimRaterKeysBySubjectAndStart(t *testing.T) {
	const stride, per = 3, 5
	var ws []dalia.Window
	for s := 0; s < 2; s++ {
		for k := 0; k < per; k++ {
			ws = append(ws, dalia.Window{Subject: s, Start: k * stride})
		}
	}
	r := newSimRater(keyRater{}, ws, stride, 2)
	for i := range ws {
		if got, want := r.DifficultyID(&ws[i]), (keyRater{}).DifficultyID(&ws[i]); got != want {
			t.Fatalf("subject %d start %d: rater %d, want %d", ws[i].Subject, ws[i].Start, got, want)
		}
	}
}
