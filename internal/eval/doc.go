// Package eval provides the evaluation substrate: per-window record
// building for the CHRIS profiler, MAE metrics in the paper's
// activity-balanced form, per-activity breakdowns and ASCII table
// rendering for the experiment harness.
//
// BuildRecords is the package's center of gravity: one inference pass of
// every zoo model plus the difficulty detector over every window,
// materialized into core.WindowRecord rows so that profiling all 60
// configurations becomes a cheap aggregation. It fans out across
// GOMAXPROCS workers (models.WorkerCloner clones per chunk, batched
// GEMM-backed estimators within a chunk) while guaranteeing records
// bitwise independent of worker count and batch boundaries.
// BuildRecordsSink adds the persistence hooks the columnar record cache
// needs: finished chunks stream into a RecordSink (reccache.Writer) as
// they complete, and a resumed run restarts from an arbitrary window
// index when AllCloneable holds.
//
// Hot paths: the per-chunk estimator dispatch inside BuildRecords (the
// actual FLOPs live in internal/models/* and internal/gemm) and the
// per-activity aggregation loop in reportFromPreds, a deterministic
// fixed-order float summation.
//
// BENCH kernels: the build_records section of BENCH_*.json (serial vs
// parallel ns/window, measured by bench.BuildBenchReport) covers this
// package; the model-level kernels it dispatches to are covered under
// their own packages.
package eval
