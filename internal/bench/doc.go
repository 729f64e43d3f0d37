// Package bench is the experiment harness: it assembles the full pipeline
// (synthetic dataset → trained models → difficulty detector →
// configuration profiling) once, then regenerates every table and figure
// of the paper's evaluation from that state. cmd/chrisbench prints all
// artifacts; the repository-root benchmarks expose one testing.B target
// per artifact.
//
// Suite construction caches its two expensive products under
// SuiteConfig.CacheDir, both crash-safely (temp file + atomic rename):
// trained TCN weights in the tcn weight format, and per-window inference
// records in the columnar format of internal/reccache. Record builds
// stream worker chunks through a checkpointing reccache.Writer, so an
// interrupted run restarts from its last completed chunk under
// SuiteConfig.Resume (chrisbench -resume) and still produces a
// byte-identical cache.
//
// Hot paths: none in bench itself — the package is the orchestrator. Its
// kernels.go instead *measures* everything the repository optimizes:
// KernelBenchmarks times FFT plans, the spectral-window estimator, Conv1D,
// batched float32/int8 network forwards, raw GEMMs and the record cache's
// encode/decode/first-record/iterate paths, most of them next to a
// seed-equivalent reference, and BuildBenchReport
// writes the committed BENCH_*.json perf trajectory together with the
// headline paper metrics.
//
// BENCH kernels owned here: CacheEncode4096x3/columnar,
// CacheDecode4096x3/columnar, CacheFirstRecord/columnar and
// CacheIterate4096x3/columnar cover the record cache this package reads
// and writes.
package bench
