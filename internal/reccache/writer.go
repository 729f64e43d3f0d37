package reccache

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/core"
)

// PartialPath returns the deterministic in-progress name for a record
// file: the writer works there until Finalize renames it onto path, and a
// resumed run looks for it under the same name.
func PartialPath(path string) string { return path + ".partial" }

// Writer appends WindowRecord segments to a columnar record file. The
// column regions are preallocated for the full run, so segments may arrive
// in any order (workers finish chunks as they please) and land at offsets
// fixed by record index alone — the finished file is byte-identical
// regardless of arrival order. The header's record count only ever covers
// the contiguous completed prefix, checkpointed by Flush, which is what
// makes a killed run resumable: whatever the count says is fully present.
//
// WriteSegment and Flush are safe for concurrent use; the remaining
// methods are not.
type Writer struct {
	f    *os.File
	path string // final destination
	tmp  string // PartialPath(path), where writes go
	lay  layout

	mu      sync.Mutex
	spans   []span // completed record ranges, sorted and disjoint
	count   uint64 // contiguous completed prefix
	flushed uint64 // last count written into the header
}

type span struct{ lo, hi uint64 }

var segBufPool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 64<<10); return &b }}

// Create starts a fresh record file for capacity records over the given
// model-name columns. The file is preallocated (zero-filled) at
// PartialPath(path); it appears at path only after Finalize.
func Create(path string, names []string, capacity int) (*Writer, error) {
	lay, err := makeLayout(names, capacity)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	tmp := PartialPath(path)
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, path: path, tmp: tmp, lay: lay}
	if err := f.Truncate(int64(lay.fileSize)); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if _, err := f.WriteAt(lay.metaBytes(0), 0); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return w, nil
}

// Resume reopens the partial file of an interrupted run for appending.
// The stored geometry must match (names, capacity) exactly; the records
// covered by the checkpointed count are kept, anything past it (written
// but never checkpointed) is rewritten by the resumed run.
func Resume(path string, names []string, capacity int) (*Writer, error) {
	tmp := PartialPath(path)
	f, err := os.OpenFile(tmp, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	lay, count, err := readMeta(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	want, err := makeLayout(names, capacity)
	if err != nil {
		f.Close()
		return nil, err
	}
	if lay.capacity != want.capacity || !sameNames(lay.names, want.names) {
		f.Close()
		return nil, fmt.Errorf("reccache: partial file %s was written for a different run", tmp)
	}
	w := &Writer{f: f, path: path, tmp: tmp, lay: lay, count: count, flushed: count}
	if count > 0 {
		w.spans = []span{{0, count}}
	}
	return w, nil
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Count returns the contiguous completed prefix: records [0, Count) are
// fully written (though only Flush persists the figure into the header).
func (w *Writer) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int(w.count)
}

// Capacity returns the record capacity the file was laid out for.
func (w *Writer) Capacity() int { return int(w.lay.capacity) }

// WriteSegment writes recs as records [start, start+len(recs)). Segments
// may overlap previously written ranges (a resumed run rewrites its
// unflushed tail) and may be written concurrently as long as concurrent
// ranges do not overlap.
func (w *Writer) WriteSegment(start int, recs []core.WindowRecord) error {
	if len(recs) == 0 {
		return nil
	}
	m := len(w.lay.names)
	lo, hi := uint64(start), uint64(start)+uint64(len(recs))
	if start < 0 || hi > w.lay.capacity {
		return fmt.Errorf("reccache: segment [%d,%d) outside capacity %d", start, hi, w.lay.capacity)
	}
	for i := range recs {
		if len(recs[i].Preds) != m {
			return fmt.Errorf("reccache: record %d has %d predictions, want %d", start+i, len(recs[i].Preds), m)
		}
		if err := recs[i].CheckCacheable(); err != nil {
			return err
		}
	}

	bufp := segBufPool.Get().(*[]byte)
	defer segBufPool.Put(bufp)
	need := len(recs) * 8 * m
	if need < len(recs)*8 {
		need = len(recs) * 8
	}
	buf := (*bufp)[:0]
	if cap(buf) < need {
		buf = make([]byte, need)
		*bufp = buf
	}
	buf = buf[:cap(buf)]

	// TrueHR column.
	b := buf[:len(recs)*8]
	le := binary.LittleEndian
	for i := range recs {
		le.PutUint64(b[i*8:], math.Float64bits(recs[i].TrueHR))
	}
	if _, err := w.f.WriteAt(b, int64(w.lay.cols[0].off+lo*8)); err != nil {
		return err
	}
	// Activity and Difficulty byte columns.
	b = buf[:len(recs)]
	for i := range recs {
		b[i] = byte(recs[i].Activity)
	}
	if _, err := w.f.WriteAt(b, int64(w.lay.cols[1].off+lo)); err != nil {
		return err
	}
	for i := range recs {
		b[i] = byte(recs[i].Difficulty)
	}
	if _, err := w.f.WriteAt(b, int64(w.lay.cols[2].off+lo)); err != nil {
		return err
	}
	// Dense prediction matrix, record-major.
	b = buf[:len(recs)*8*m]
	for i := range recs {
		f64encode(b[i*8*m:(i+1)*8*m], recs[i].Preds)
	}
	if _, err := w.f.WriteAt(b, int64(w.lay.cols[3].off+lo*w.lay.cols[3].stride)); err != nil {
		return err
	}

	w.mu.Lock()
	w.addSpan(span{lo, hi})
	w.mu.Unlock()
	return nil
}

// addSpan merges a completed range into the span set and advances the
// contiguous prefix. Caller holds mu.
func (w *Writer) addSpan(s span) {
	w.spans = append(w.spans, s)
	sort.Slice(w.spans, func(i, j int) bool { return w.spans[i].lo < w.spans[j].lo })
	merged := w.spans[:1]
	for _, t := range w.spans[1:] {
		last := &merged[len(merged)-1]
		if t.lo <= last.hi {
			if t.hi > last.hi {
				last.hi = t.hi
			}
		} else {
			merged = append(merged, t)
		}
	}
	w.spans = merged
	if w.spans[0].lo == 0 {
		w.count = w.spans[0].hi
	}
}

// Flush checkpoints the contiguous completed prefix into the header, the
// point up to which a killed run can later resume. The column data is
// synced before the count advances, so the checkpoint is durable against
// OS crashes and power loss, not just process kills: whatever count a
// reopened partial file carries, those records' bytes reached disk
// first. The whole step runs under the writer lock — concurrent flushes
// would otherwise interleave and could leave an older count in the file
// while marking a newer one flushed.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.count == w.flushed {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w.count)
	if _, err := w.f.WriteAt(b[:], countFieldOff); err != nil {
		return err
	}
	w.flushed = w.count
	return nil
}

// Finalize requires every record to be present, checkpoints, syncs and
// atomically renames the partial file onto the final path — as
// snapshot.WriteFile does for single blobs, an interrupted run can never
// leave a truncated file under the final name.
func (w *Writer) Finalize() error {
	if got, want := w.Count(), w.Capacity(); got != want {
		return fmt.Errorf("reccache: finalize with %d of %d records", got, want)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	return os.Rename(w.tmp, w.path)
}

// Close checkpoints and closes the writer, leaving the partial file in
// place for a later Resume. (Use Finalize to publish the finished file.)
func (w *Writer) Close() error {
	if err := w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
