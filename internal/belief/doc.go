// Package belief is the temporal belief-propagation layer: it models the
// heart rate as a discrete-state hidden Markov chain over quantized HR
// bins (Grid), learns an empirical HR-transition prior from DaLiA-style
// training windows (LearnWindows → Table, row-stochastic and
// Laplace-smoothed within a transition band), and runs an online
// sum-product forward pass (Filter) that fuses each window's point
// estimate — discretized into a motion-scaled Gaussian likelihood — with
// the predictive distribution. ForwardBackward and Viterbi provide the
// offline smoothing and MAP-path counterparts; the forward pass of
// ForwardBackward reuses the Filter step verbatim, so its filtered
// marginals are bitwise identical to the streaming ones.
//
// The per-window cost is one matrix-vector product over HR bins. Dense
// tables lower it onto the float64 gemm panels (gemm.F64); learned tables
// are banded (transitions between consecutive 2-second windows stay
// within a few BPM), and the filter then contracts only each column's
// non-zero span, eight adjacent columns at a time over the union of their
// spans — bitwise identical to the dense product, since the skipped and
// the added out-of-span terms are exact +0 contributions. The streaming
// update is
// allocation-free after construction and bitwise deterministic, like
// every other hot path in this repository (float64 is the reference
// precision; no float32 enters the belief layer).
//
// Beyond smoothing, the posterior carries a calibrated per-window
// confidence: Interval/Width expose the central credible interval and
// Entropy the posterior entropy. Policy packages the filter's knobs for
// the simulation/serving/fleet layers, where the predictive interval
// width drives core.UncertaintyGate — the offload escalates to the phone
// only when the wearable-side belief is actually uncertain, a knob the
// source paper does not explore. The filter's own arithmetic (~2 k flops
// per window on the default banded 90-bin grid) is charged to the
// existing MCU window budget rather than metered separately; it is two
// orders of magnitude below the cheapest zoo model's op count.
package belief
