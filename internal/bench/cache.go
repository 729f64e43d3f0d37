package bench

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/reccache"
)

// Records are cached in the columnar format of internal/reccache so that
// repeated harness runs skip the expensive inference pass over every
// window. The cache key (embedded in the file name by the caller) covers
// dataset, split and model configuration; the header's record count guards
// against stale files, and the check runs before a single column byte is
// read. Callers treat any load error as a miss and rebuild.

// saveRecords writes recs as a finalized columnar record file in one
// segment. Incremental runs go through reccache.Writer directly (see
// obtainRecords); this is the convenience form for already-materialized
// slices.
func saveRecords(path string, recs []core.WindowRecord) error {
	if len(recs) == 0 {
		return fmt.Errorf("bench: no records to cache")
	}
	if recs[0].Header == nil {
		return fmt.Errorf("bench: records lack a prediction header")
	}
	w, err := reccache.Create(path, recs[0].Header.Names(), len(recs))
	if err != nil {
		return err
	}
	if err := w.WriteSegment(0, recs); err != nil {
		w.Close()
		os.Remove(reccache.PartialPath(path))
		return err
	}
	return w.Finalize()
}

// loadRecords opens a columnar cache and loads its records. Staleness
// (wrong record count for the requested window set) is detected from the
// header alone, before any column is read; a truncated file is rejected
// by reccache.Open the same way.
func loadRecords(path string, wantLen int) ([]core.WindowRecord, error) {
	r, err := reccache.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if r.Count() != wantLen {
		return nil, fmt.Errorf("bench: stale record cache %s (%d records, want %d)", path, r.Count(), wantLen)
	}
	return r.Records()
}
