// Package dsp provides the signal-processing substrate used throughout the
// CHRIS reproduction: descriptive statistics, an FFT, window functions,
// IIR/FIR filtering, peak detection, spectral estimation and resampling.
// Everything runs in float64, the precision every paper artifact is
// generated with.
//
// The FFTs are plan-based: NewPlan precomputes the twiddle-factor and
// bit-reversal tables for one transform size, and the plan's Execute,
// Inverse, RealFFTInto and PowerSpectrumInto methods then run without any
// heap allocation (real-input transforms go through one half-size complex
// FFT). The package-level FFT/IFFT/RealFFT/PowerSpectrum functions remain
// as thin wrappers over shared cached plans, so casual callers keep the
// simple API while hot loops hold a plan and reuse output buffers.
//
// Hot paths: the radix-2² butterfly passes behind Execute and the fused
// square-magnitude loop in PowerSpectrumInto — every AT window estimate
// and every spectral feature of the difficulty detector runs through them.
// A plan's tables are read-only after construction, so distinct goroutines
// may share one for Execute, Inverse and RealFFTInto; PowerSpectrumInto
// reuses internal scratch and needs one plan per worker.
//
// BENCH kernels: RealFFT256/plan, PowerSpectrum256/plan and
// PowerSpectrum256/seed (the pre-plan reference), RealFFT4096/plan and
// PowerSpectrum4096/plan, in BENCH_*.json.
package dsp
