// Package sim runs whole-system simulations of a CHRIS smartwatch: window
// ticks, decision-engine dispatch, MCU/radio/phone energy accounting,
// sensor front-end drain, BLE link dropouts with configuration
// re-selection, and battery depletion — the pieces behind the paper's
// battery-life motivation (§I) and connectivity discussion (§IV-B).
//
// A simulation composes the decision engine (internal/core), the
// calibrated hardware models (internal/hw) and a window stream
// (internal/dalia) into a tick loop; the examples/ directory drives it
// for the battery-life and connection-loss scenarios.
//
// One Step (step.go) makes every per-window decision: the link check,
// the belief-gated dispatch, the offload protocol with graceful
// degradation to the watch-side fallback model, and configuration
// re-selection. RunState's single tick loop adds what only the watch
// has around it: the MCU busy with an earlier inference, energy
// accounting, the belief observation and the battery. The streaming
// engine (internal/serve) drives the same Step per session.
//
// Config.Faults selects the Step's semantics. Without an injector it is
// the paper's engine: lossless, always-timely transfers and immediate
// re-selection at every link edge. With one, offloads run over a lossy
// Gilbert–Elliott burst channel through a deadline/retry/backoff
// protocol, re-selection moves behind hysteresis, and the injected
// scenario (internal/faults) adds phone latency spikes, phone
// unavailability and battery brown-outs. On an always-up link the
// zero-fault scenario is bitwise identical to the injector-free run,
// and a fixed fault seed replays to an identical Result — both are
// pinned by tests.
//
// Hot paths: the per-window tick loop. It is orders of magnitude lighter
// than the inference pipeline (no model evaluation — it consumes
// precomputed records/decisions and energy table lookups), but it is
// dense enough to matter for long fault sweeps, so BENCH kernels
// SimRun1h/clean and SimRun1h/faults track its throughput with and
// without injection (internal/bench).
package sim
