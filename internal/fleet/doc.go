// Package fleet scales the single-subject CHRIS simulator to a synthetic
// population: millions of independent users, each with their own sampled
// physiology, activity signal, fault scenario and operating constraint,
// simulated through the exact sim.Run tick loop and streamed into
// bounded-memory population aggregates.
//
// # Determinism: the seed-fork contract
//
// Every per-user random quantity derives from a label-keyed
// faults.Rand fork of the fleet seed ("user:<id>" and fixed sub-labels
// below it), never from a shared sequential stream. A user is therefore a
// pure function of (Config, id): Fleet.SimulateUser replays any single
// user standalone, bitwise identical to that user's slice of a whole
// fleet run, regardless of worker count or completion order
// (TestSingleUserExtraction pins this).
//
// # Bounded-memory aggregation
//
// Per-user sim.Results are reduced to a fixed vector of scalar metrics
// and ingested into ScalarAgg sketches — an int64 tick-sum plus a
// fixed-bin histogram with interpolated quantiles. All aggregate state is
// integer counts/sums and float min/max, so Merge is exactly associative
// and commutative: the same seed produces a deep-equal Summary for 1, 4
// or GOMAXPROCS workers, and no per-user record is ever materialized in
// memory (TestWorkerCountInvariance, TestAggMergeProperties).
//
// # Speed: replay models
//
// The tick loop dominates a fleet run (43 200 windows per simulated
// user-day), so each user's unique windows are classified and predicted
// once at setup: the difficulty forest and a surrogate model zoo
// (name-calibrated ops/energy, per-user bias + motion-scaled error) fill
// O(1) replay tables, and the per-user engine then ticks through sim.Run
// at about 75 ns/window without fault injection and 190-200 ns/window with
// it (perfbench fleet --trace 1, seeds 41 and 42: sim.clean_ns_per_window
// and sim.faults_ns_per_window on a 2-vCPU Xeon). This is what
// makes "1M user-days overnight on one box" a sizing statement rather
// than a wish; BENCH_*.json's fleet section reports the measured
// windows/sec.
//
// # Checkpoint/resume
//
// With Config.Checkpoint set, each finished user is written as one row of
// a reccache columnar file (metrics as the prediction columns, cohort in
// the activity byte); workers land rows at index-fixed offsets in any
// order and the contiguous prefix is checkpointed, so an interrupted
// overnight run resumes from the checkpoint and finishes with a summary
// byte-identical to an uninterrupted run's (TestCheckpointResume).
package fleet
