// Package dsp provides the signal-processing substrate used throughout the
// CHRIS reproduction: descriptive statistics, a forward real-input FFT, the
// Hann window, a Hann periodogram with dominant-frequency search, and the
// peak-region primitives (RegionsAbove, ArgMax, RollingMean) that the
// Adaptive Threshold tests use as their independent reference. Everything
// runs in float64, the precision every paper artifact is generated with.
//
// The FFT is plan-based: NewPlan precomputes the twiddle-factor and
// bit-reversal tables for one transform size, and the plan's RealFFTInto
// and PowerSpectrumInto methods then run without any heap allocation (a
// real-input transform goes through one half-size complex FFT). The
// package-level PowerSpectrum function remains as a thin wrapper over a
// shared cached plan, so casual callers keep the simple API while hot
// loops hold a plan and reuse output buffers.
//
// Hot paths: the radix-2² butterfly passes behind both methods and the
// fused square-magnitude loop in PowerSpectrumInto — every AT window
// estimate and every spectral feature of the difficulty detector runs
// through them. A plan's tables are read-only after construction, so
// distinct goroutines may share one for RealFFTInto; PowerSpectrumInto
// reuses internal scratch and needs one plan per worker.
//
// BENCH kernels: RealFFT256/plan, PowerSpectrum256/plan and
// PowerSpectrum256/seed (the pre-plan reference), RealFFT4096/plan and
// PowerSpectrum4096/plan, in BENCH_*.json.
package dsp
