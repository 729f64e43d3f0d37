// Package core implements CHRIS, the Collaborative Heart Rate Inference
// System of the paper: a smartwatch runtime that, for every analysis
// window, selects one of two heart-rate models and an execution target
// (watch or phone) so as to meet a user constraint on error or energy.
//
// The package provides the Models Zoo, the enumeration and offline
// profiling of the 60 operating configurations (§III-A), the Pareto
// analysis of the MAE/energy plane (§IV-B), and the two-stage Decision
// Engine (§III-B): constraint-dependent configuration selection followed
// by input-dependent model selection driven by the Random-Forest
// difficulty detector. It also owns the data vocabulary the pipeline is
// built on: WindowRecord/RecordHeader (record.go, including the column
// and dtype constants of the on-disk layout implemented by
// internal/reccache). The profile table is not persisted: the suite
// recomputes it from the cached records on every run.
//
// Hot paths: ProfileConfig's per-record aggregation loop — 60
// configurations × every profiling window, map-free via dense
// RecordHeader indices and run in parallel across configurations by
// ProfileConfigs with a deterministic stable sort; and the per-activity
// fixed-order float summations that keep profile MAEs bitwise
// reproducible at any worker count.
//
// BENCH kernels: none directly; the profiling loop's cost is covered
// end-to-end by the build_records and headline sections of BENCH_*.json,
// and the record layout it consumes is covered by the Cache* kernels in
// internal/bench.
package core
