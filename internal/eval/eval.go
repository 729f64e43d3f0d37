package eval

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/models"
	"repro/internal/models/rf"
)

// RecordSink receives contiguous segments of finished records as a record
// build progresses; reccache.Writer is the intended implementation. start
// is the absolute record index of recs[0]. Segments for disjoint ranges
// may arrive concurrently and out of order.
type RecordSink interface {
	WriteSegment(start int, recs []core.WindowRecord) error
}

// AllCloneable reports whether every zoo model supports worker cloning —
// the precondition for resuming a record build from an arbitrary window
// index (a stateful tracker's output depends on having seen every prior
// window, so a suffix-only rebuild would not be bitwise reproducible).
func AllCloneable(zoo []models.HREstimator) bool {
	for _, m := range zoo {
		if _, ok := m.(models.WorkerCloner); !ok {
			return false
		}
	}
	return true
}

// BuildRecords runs every zoo model and the difficulty detector over the
// windows once, producing the records the configuration profiler
// aggregates. Running inference once per model — instead of once per
// configuration — is what makes profiling all 60 configurations cheap.
//
// The work fans out across GOMAXPROCS workers: models implementing
// models.WorkerCloner (and the read-only difficulty detector) split the
// windows into contiguous chunks, each chunk served by a private worker
// clone; models without clone support — typically trackers whose output
// depends on window order — run serially over the full sequence in their
// own goroutine. Within a chunk, estimators implementing
// models.BatchHREstimator take the batched path — one GEMM-backed pass
// over the whole chunk — in preference to window-at-a-time dispatch.
// Every (window, model) value is computed exactly as in the serial path
// (batch implementations guarantee bitwise equality per window), so the
// records are bitwise independent of both the worker count and the batch
// boundaries.
func BuildRecords(ws []dalia.Window, zoo []models.HREstimator, cls *rf.Classifier) ([]core.WindowRecord, error) {
	return BuildRecordsSink(ws, zoo, cls, nil, 0)
}

// BuildRecordsSink is BuildRecords with persistence hooks for the
// columnar record cache: windows before startAt are assumed already
// persisted by an interrupted run (every model must then satisfy
// AllCloneable, since only per-window-independent models can restart
// mid-sequence bitwise-identically), and finished records stream into
// sink as contiguous segments — each worker hands over its chunk the
// moment every model has filled it, so a long build checkpoints as it
// goes instead of in one final write. The returned slice covers
// ws[startAt:]; sink segments use absolute window indices.
func BuildRecordsSink(ws []dalia.Window, zoo []models.HREstimator, cls *rf.Classifier, sink RecordSink, startAt int) ([]core.WindowRecord, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("eval: no windows")
	}
	if len(zoo) == 0 {
		return nil, fmt.Errorf("eval: no models")
	}
	if cls == nil {
		return nil, fmt.Errorf("eval: nil classifier")
	}
	if startAt < 0 || startAt > len(ws) {
		return nil, fmt.Errorf("eval: resume offset %d outside %d windows", startAt, len(ws))
	}
	allClone := AllCloneable(zoo)
	if startAt > 0 && !allClone {
		return nil, fmt.Errorf("eval: cannot resume at window %d: zoo has sequential models", startAt)
	}
	sub := ws[startAt:]
	names := make([]string, len(zoo))
	for i, m := range zoo {
		names[i] = m.Name()
	}
	header := core.NewRecordHeader(names...)
	// One flat backing array keeps the dense prediction rows contiguous.
	flat := make([]float64, len(sub)*len(zoo))
	recs := make([]core.WindowRecord, len(sub))
	for i := range sub {
		recs[i] = core.WindowRecord{
			TrueHR:   sub[i].TrueHR,
			Activity: sub[i].Activity,
			Header:   header,
			Preds:    flat[i*len(zoo) : (i+1)*len(zoo) : (i+1)*len(zoo)],
		}
	}
	if len(sub) == 0 {
		return recs, nil
	}
	// Workers may stream their chunks into the sink only when no serial
	// model writes columns behind their backs.
	streamSink := sink
	if !allClone {
		streamSink = nil
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(sub) {
		workers = len(sub)
	}
	if workers < 1 {
		workers = 1
	}
	sinkErrs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(sub) / workers
		hi := (w + 1) * len(sub) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var batchOut []float64 // lazily sized scratch shared by batch models
			for mi, m := range zoo {
				cloner, ok := m.(models.WorkerCloner)
				if !ok {
					continue // handled serially below
				}
				est := cloner.CloneEstimator()
				if be, ok := est.(models.BatchHREstimator); ok {
					if batchOut == nil {
						batchOut = make([]float64, hi-lo)
					}
					be.EstimateHRBatch(sub[lo:hi], batchOut)
					for i := lo; i < hi; i++ {
						recs[i].Preds[mi] = batchOut[i-lo]
					}
					continue
				}
				for i := lo; i < hi; i++ {
					recs[i].Preds[mi] = est.EstimateHR(&sub[i])
				}
			}
			// The forest is read-only under Classify; chunk it too.
			for i := lo; i < hi; i++ {
				recs[i].Difficulty = cls.DifficultyID(&sub[i])
			}
			if streamSink != nil {
				sinkErrs[w] = streamSink.WriteSegment(startAt+lo, recs[lo:hi])
			}
		}(w, lo, hi)
	}
	// Stateful models keep their sequential window order; each writes its
	// own dense column, so they still overlap with everything else. A batch
	// implementation is still preferred: sequencing is preserved because
	// the single goroutine sees every window in order.
	for mi, m := range zoo {
		if _, ok := m.(models.WorkerCloner); ok {
			continue
		}
		wg.Add(1)
		go func(mi int, m models.HREstimator) {
			defer wg.Done()
			if be, ok := m.(models.BatchHREstimator); ok {
				out := make([]float64, len(sub))
				be.EstimateHRBatch(sub, out)
				for i := range sub {
					recs[i].Preds[mi] = out[i]
				}
				return
			}
			for i := range sub {
				recs[i].Preds[mi] = m.EstimateHR(&sub[i])
			}
		}(mi, m)
	}
	wg.Wait()
	for _, err := range sinkErrs {
		if err != nil {
			return nil, err
		}
	}
	// With serial models in the zoo a chunk is only complete once every
	// column goroutine has finished, so the sink gets one final segment.
	if sink != nil && streamSink == nil {
		if err := sink.WriteSegment(startAt, recs); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// ModelReport summarizes one estimator's accuracy.
type ModelReport struct {
	Name string
	// MAE is the activity-balanced MAE (per-activity means averaged),
	// matching the paper's equal-representation evaluation.
	MAE float64
	// OverallMAE weights every window equally (duration-weighted view).
	OverallMAE float64
	// PerActivity maps each activity to its MAE.
	PerActivity map[dalia.Activity]float64
	Windows     int
}

// EvaluatePredictions builds a report from precomputed predictions (used
// when records already hold every model's outputs).
func EvaluatePredictions(name string, preds []float64, ws []dalia.Window) (ModelReport, error) {
	if len(preds) != len(ws) || len(ws) == 0 {
		return ModelReport{}, fmt.Errorf("eval: predictions/windows mismatch %d/%d", len(preds), len(ws))
	}
	return reportFromPreds(name, preds, ws), nil
}

func reportFromPreds(name string, preds []float64, ws []dalia.Window) ModelReport {
	sum := map[dalia.Activity]float64{}
	n := map[dalia.Activity]int{}
	var total float64
	for i := range ws {
		err := models.AbsError(preds[i], ws[i].TrueHR)
		sum[ws[i].Activity] += err
		n[ws[i].Activity]++
		total += err
	}
	per := make(map[dalia.Activity]float64, len(sum))
	var balanced float64
	var acts int
	for _, a := range dalia.Activities() { // fixed order: deterministic sum
		if n[a] == 0 {
			continue
		}
		per[a] = sum[a] / float64(n[a])
		balanced += per[a]
		acts++
	}
	return ModelReport{
		Name:        name,
		MAE:         balanced / float64(acts),
		OverallMAE:  total / float64(len(ws)),
		PerActivity: per,
		Windows:     len(ws),
	}
}
