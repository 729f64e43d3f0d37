package dsp

// Region is a half-open index interval [Start, End) of a signal.
type Region struct {
	Start, End int
}

// RegionsAbove returns the maximal runs of indices where x exceeds the
// per-sample threshold thr (which must have the same length as x). It is
// the "regions of interest" primitive of the Adaptive Threshold HR method.
func RegionsAbove(x, thr []float64) []Region {
	var out []Region
	in := false
	start := 0
	for i := range x {
		above := x[i] > thr[i]
		switch {
		case above && !in:
			in, start = true, i
		case !above && in:
			in = false
			out = append(out, Region{Start: start, End: i})
		}
	}
	if in {
		out = append(out, Region{Start: start, End: len(x)})
	}
	return out
}

// ArgMax returns the index of the maximum of x[start:end] in absolute
// coordinates; end is exclusive. It returns start for empty ranges.
func ArgMax(x []float64, start, end int) int {
	if start < 0 {
		start = 0
	}
	if end > len(x) {
		end = len(x)
	}
	best := start
	for i := start + 1; i < end; i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}
