// Package bench is the experiment harness: it assembles the full pipeline
// (synthetic dataset → trained models → difficulty detector →
// configuration profiling) once, then regenerates every table and figure
// of the paper's evaluation from that state. cmd/chrisbench prints all
// artifacts; the repository-root benchmarks expose one testing.B target
// per artifact.
//
// Suite construction caches its expensive products under
// SuiteConfig.CacheDir, all crash-safely (partial file + atomic rename):
// trained TCN weights and the learned belief transition prior as CHSS
// frames (internal/snapshot; the prior's frame is bound to a hash of
// everything it was learned from), and per-window inference records in
// the columnar format of internal/reccache. Any cache file that fails to
// load is rebuilt, not migrated. Record builds
// stream worker chunks through a checkpointing reccache.Writer, so an
// interrupted run restarts from its last completed chunk under
// SuiteConfig.Resume (chrisbench -resume) and still produces a
// byte-identical cache.
//
// Hot paths: none in bench itself — the package is the orchestrator. Its
// kernels.go instead *measures* everything the repository optimizes:
// KernelBenchmarks times FFT plans, the spectral-window estimator, Conv1D,
// float32/int8 network forwards at one window and at 32, raw GEMMs and
// the record cache's encode/decode/first-record/iterate paths, the
// spectrum next to its seed-equivalent reference, and BuildBenchReport
// writes the committed BENCH_*.json perf trajectory together with the
// headline paper metrics.
//
// BENCH kernels owned here: CacheEncode4096x3/columnar,
// CacheDecode4096x3/columnar, CacheFirstRecord/columnar and
// CacheIterate4096x3/columnar cover the record cache this package reads
// and writes.
package bench
