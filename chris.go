// Package chris is the public façade of the CHRIS reproduction — the
// Collaborative Heart Rate Inference System from "Energy-efficient
// Wearable-to-Mobile Offload of ML Inference for PPG-based Heart-Rate
// Estimation" (DATE 2023).
//
// The façade re-exports the pieces the examples and commands compose:
//
//   - the Models Zoo (NewZoo, HREstimator, BatchHREstimator) and offline
//     profiling of its operating configurations (BuildRecords,
//     ProfileConfigs, Pareto, FilterLocal),
//   - the decision engine with its constraint- and input-dependent
//     selection stages (NewEngine, MAEConstraint, EnergyConstraint),
//   - a fully assembled pipeline — synthetic PPGDalia-like dataset,
//     trained models, difficulty detector, profiled configurations and
//     hardware models (BuildPipeline, QuickPipelineConfig),
//   - whole-system simulation (Simulate), optionally fault-injected
//     through the deterministic chaos harness (NewFaultInjector,
//     CommuteScenario, WorstCaseScenario) or driven by a BLE dropout
//     trace (NewConnectivityTrace),
//   - population-scale fleet simulation (SimulateFleet, NewFleet; see
//     cmd/chrisfleet),
//   - the streaming multi-session engine (OpenServeEngine, ServeSession),
//     deterministic under a ServeVirtualClock, whose CRC-protected
//     snapshots are rejected with typed errors (ErrSnapshotCorrupt; see
//     examples/durability),
//   - the belief layer's transition prior, stored in the same
//     CRC-protected snapshot frame (SaveBeliefTable, LoadBeliefTable; see
//     examples/belief).
//
// See examples/quickstart for the three-call happy path: BuildPipeline →
// Engine → Predict.
//
// # Performance
//
// The hot paths are allocation-free after warm-up and the profiling
// pipeline is parallel: FFT plans and TCN layers reuse their scratch, TCN
// inference runs whole window batches through the GEMM micro-kernels of
// internal/gemm (bitwise identical to window-at-a-time EstimateHR), and
// BuildRecords and ProfileConfigs fan out across GOMAXPROCS workers.
// ARCHITECTURE.md states the invariants. `go test -bench . -benchmem`
// covers every kernel next to the paper artifacts at the repository root,
// and `chrisbench -json BENCH_<pr>.json` writes the machine-readable
// trajectory file: per-kernel ns/op and allocs/op for the optimized and
// seed-reference implementations plus the headline MAE/energy metrics.
package chris

import (
	"repro/internal/belief"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw/ble"
	"repro/internal/hw/power"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Core CHRIS types.
type (
	// HREstimator is the interface every zoo model implements.
	HREstimator = models.HREstimator
	// BatchHREstimator is the batched fast path: estimators implementing
	// it run whole window slices through GEMM-backed kernels, bitwise
	// identical to window-at-a-time EstimateHR.
	BatchHREstimator = models.BatchHREstimator
	// Engine is the two-stage decision engine.
	Engine = core.Engine
	// Constraint is a user bound on MAE or energy.
	Constraint = core.Constraint
	// Window is one 8-second analysis window.
	Window = dalia.Window
)

// Re-exported constructors and functions.
var (
	// NewZoo builds a Models Zoo from estimators ordered worst→best.
	NewZoo = core.NewZoo
	// ProfileConfigs measures configurations over profiling records.
	ProfileConfigs = core.ProfileConfigs
	// Pareto extracts the non-dominated configurations.
	Pareto = core.Pareto
	// FilterLocal keeps the configurations usable without BLE.
	FilterLocal = core.FilterLocal
	// NewEngine builds the decision engine.
	NewEngine = core.NewEngine
	// MAEConstraint bounds the expected error.
	MAEConstraint = core.MAEConstraint
	// EnergyConstraint bounds the expected watch energy.
	EnergyConstraint = core.EnergyConstraint
	// BuildRecords runs the zoo and detector over windows once.
	BuildRecords = eval.BuildRecords
	// NewConnectivityTrace schedules link up/down toggles.
	NewConnectivityTrace = ble.NewConnectivityTrace
	// MilliJoules builds an Energy value.
	MilliJoules = power.MilliJoules
)

// PipelineConfig sizes BuildPipeline. It is the experiment-harness
// configuration re-exported.
type PipelineConfig = bench.SuiteConfig

// Pipeline is a fully assembled CHRIS deployment: dataset, trained models,
// difficulty detector, profiled configurations and hardware models.
type Pipeline = bench.Suite

// QuickPipelineConfig is a scaled-down pipeline that builds in seconds.
func QuickPipelineConfig() PipelineConfig { return bench.QuickSuiteConfig() }

// BuildPipeline assembles the full pipeline.
func BuildPipeline(cfg PipelineConfig) (*Pipeline, error) { return bench.NewSuite(cfg) }

// Simulation re-exports.
type (
	// ScenarioConfig drives a whole-system simulation.
	ScenarioConfig = sim.Config
	// ScenarioResult aggregates a simulation run.
	ScenarioResult = sim.Result
)

// Simulate runs a whole-system scenario.
func Simulate(cfg ScenarioConfig) (ScenarioResult, error) { return sim.Run(cfg) }

// Fault-injection re-exports (the deterministic chaos harness of
// internal/faults: lossy BLE with replayable per-packet loss, link flaps,
// phone latency spikes and unavailability, battery brown-outs).
var (
	// NewFaultInjector binds a scenario to a replay seed.
	NewFaultInjector = faults.NewInjector
	// CommuteScenario and WorstCaseScenario are preset chaos scenarios.
	CommuteScenario   = faults.Commute
	WorstCaseScenario = faults.WorstCase
)

// Streaming-engine re-exports (internal/serve: the fault-tolerant
// multi-session inference server — bounded per-session mailboxes, a
// cross-session batch coalescer, explicit overload degradation, panic
// supervision and an injectable clock; see cmd/chrisserve and
// examples/streaming).
type (
	// ServeConfig parameterizes the streaming engine.
	ServeConfig = serve.Config
	// ServeEngine multiplexes concurrent user sessions over one model zoo.
	ServeEngine = serve.Engine
	// ServeSession is one user's isolated stream.
	ServeSession = serve.Session
	// ServeResult is the engine's answer for one submitted window.
	ServeResult = serve.WindowResult
	// ServeStats aggregates one session's robustness counters.
	ServeStats = serve.SessionStats
	// ServeVirtualClock drives deterministic lockstep runs.
	ServeVirtualClock = serve.VirtualClock
)

var (
	// OpenServeEngine starts a streaming engine (wall-clock server mode,
	// or deterministic lockstep under a ServeVirtualClock).
	OpenServeEngine = serve.Open
	// NewServeVirtualClock returns a manually advanced clock at t=0.
	NewServeVirtualClock = serve.NewVirtualClock
	// ErrSnapshotCorrupt classifies a rejected engine snapshot with
	// damaged bytes; it degrades deterministically to a fresh session via
	// ServeEngine.AttachOrFresh.
	ErrSnapshotCorrupt = serve.ErrSnapshotCorrupt
)

// ServeOutcomeShed marks a window the overloaded engine degraded to the
// watch-side model (see serve.Outcome).
const ServeOutcomeShed = serve.OutcomeShed

// Fleet-simulation re-exports (internal/fleet: a synthetic population of
// independent users — per-user physiology, scenario and constraint drawn
// from label-keyed seed forks — simulated through sim.Run and streamed
// into order-invariant bounded-memory aggregates; same seed ⇒
// byte-identical summary across runs and worker counts).
var (
	// SimulateFleet runs a whole fleet and returns the population summary.
	SimulateFleet = fleet.Run
	// NewFleet builds the shared fleet state for per-user access
	// (Fleet.SimulateUser replays any single user standalone, bitwise
	// identical to its slice of a whole-fleet run).
	NewFleet = fleet.New
	// DefaultFleetConfig is a small reference fleet (100 users × 1 day).
	DefaultFleetConfig = fleet.DefaultConfig
)

// Belief-propagation re-exports (internal/belief: an HMM over quantized
// HR bins whose posterior width gates offloads via Engine.DispatchGated).
var (
	// SaveBeliefTable and LoadBeliefTable round-trip the learned
	// HR-transition prior as a CHSS frame (snapshot.KindBeliefTable)
	// bound to a caller-chosen config hash; SaveBeliefTable publishes
	// crash-safely.
	SaveBeliefTable = belief.SaveTable
	LoadBeliefTable = belief.LoadTable
)
