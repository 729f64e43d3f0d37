package reccache

import (
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dalia"
)

// Reader opens a columnar record file. Open reads and validates only the
// header and tables — a handful of hundred bytes regardless of record
// count — so staleness checks (count, model set) cost no column I/O; the
// columns are touched only by Records, RecordsInto or Iter.
type Reader struct {
	f      *os.File
	size   int64
	lay    layout
	count  uint64
	header *core.RecordHeader
}

// readMeta loads and validates the header + tables of an open file.
func readMeta(f *os.File) (layout, uint64, error) {
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return layout{}, 0, fmt.Errorf("reccache: reading header: %w", err)
	}
	// A first parse of the fixed header alone would duplicate the field
	// decoding; instead bound the variable part by the stored dataOff and
	// parse once. parseMeta re-validates every field against the
	// recomputed geometry.
	dataOff := binary.LittleEndian.Uint64(hdr[48:])
	if dataOff < headerSize || dataOff > 1<<24 {
		// Either not our file (magic is checked by parseMeta below on the
		// fixed part) or a corrupt table length; parse the fixed header
		// for the precise error.
		if _, _, err := parseMeta(hdr[:]); err != nil {
			return layout{}, 0, err
		}
		return layout{}, 0, fmt.Errorf("reccache: implausible table size %d", dataOff)
	}
	meta := make([]byte, dataOff)
	if _, err := f.ReadAt(meta, 0); err != nil {
		return layout{}, 0, fmt.Errorf("reccache: reading tables: %w", err)
	}
	return parseMeta(meta)
}

// Open reads the file's header and tables. It accepts both finalized
// files and partial checkpoints (Count < Capacity); callers decide what
// count they require. The column regions must be present in full — a
// file truncated below its laid-out size is rejected here, before any
// record is read.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	lay, count, err := readMeta(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if uint64(st.Size()) < lay.fileSize {
		f.Close()
		return nil, fmt.Errorf("reccache: %s truncated: %d bytes, layout needs %d", path, st.Size(), lay.fileSize)
	}
	return &Reader{
		f:      f,
		size:   st.Size(),
		lay:    lay,
		count:  count,
		header: core.NewRecordHeader(lay.names...),
	}, nil
}

// Close releases the file handle. Records returned earlier stay valid:
// they reference memory, not the file.
func (r *Reader) Close() error { return r.f.Close() }

// Count returns the number of complete records the file holds.
func (r *Reader) Count() int { return int(r.count) }

// Capacity returns the record capacity the file was laid out for.
func (r *Reader) Capacity() int { return int(r.lay.capacity) }

// Records loads every complete record. Equivalent to RecordsInto(nil).
func (r *Reader) Records() ([]core.WindowRecord, error) {
	return r.RecordsInto(nil)
}

// RecordsInto loads every complete record, reusing dst's backing array
// when it has the capacity (pass a slice recycled from a previous load to
// avoid reallocating the record headers). Each column's first Count
// records are fetched with one ReadAt — a partial checkpoint of a large
// run costs I/O proportional to its prefix, not its capacity — and on
// little-endian hosts the float64 columns — TrueHR and the dense Pred
// matrix — are reinterpreted in place rather than decoded, so the
// returned records alias one contiguous buffer and loading cost is
// dominated by the reads themselves.
func (r *Reader) RecordsInto(dst []core.WindowRecord) ([]core.WindowRecord, error) {
	n := int(r.count)
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]core.WindowRecord, n)
	}
	if n == 0 {
		return dst, nil
	}
	// One buffer, one read per column, each bounded by count — a partial
	// checkpoint of a huge run reads only its prefix, not the whole
	// preallocated region. The float64 sections sit 8-aligned within the
	// buffer (and the buffer itself is heap-aligned), preserving the
	// zero-copy views; the buffer must stay unshared: the records below
	// alias it.
	un := uint64(n)
	var bufOff [core.RecordNumColumns]uint64
	end := uint64(0)
	for i, c := range r.lay.cols {
		if c.dtype == core.RecordDTypeF64 {
			end = align8(end)
		}
		bufOff[i] = end
		end += c.stride * un
	}
	buf := make([]byte, end)
	col := func(i int) []byte {
		return buf[bufOff[i] : bufOff[i]+r.lay.cols[i].stride*un]
	}
	for i, c := range r.lay.cols {
		if _, err := r.f.ReadAt(col(i), int64(c.off)); err != nil {
			return nil, fmt.Errorf("reccache: reading column %d: %w", c.id, err)
		}
	}
	trueHR, ok := f64view(col(0))
	if !ok {
		trueHR = make([]float64, n)
		f64decode(trueHR, col(0))
	}
	act, diff := col(1), col(2)
	m := len(r.lay.names)
	preds, ok := f64view(col(3))
	if !ok {
		preds = make([]float64, n*m)
		f64decode(preds, col(3))
	}
	for i := 0; i < n; i++ {
		dst[i] = core.WindowRecord{
			TrueHR:     trueHR[i],
			Activity:   dalia.Activity(act[i]),
			Difficulty: int(diff[i]),
			Header:     r.header,
			Preds:      preds[i*m : (i+1)*m : (i+1)*m],
		}
	}
	return dst, nil
}

// iterBlock is the number of records Iter stages per read; large enough
// to amortize syscalls, small enough that time-to-first-record stays
// independent of file size.
const iterBlock = 256

// Iter streams the complete records in order without materializing the
// full slice: fn is called with each record index and a record whose
// Preds slice aliases an internal block buffer, valid only until fn
// returns false or the next call. Iteration stops early when fn returns
// false.
func (r *Reader) Iter(fn func(i int, rec *core.WindowRecord) bool) error {
	n := int(r.count)
	if n == 0 {
		return nil
	}
	m := len(r.lay.names)
	thB := make([]byte, iterBlock*8)
	actB := make([]byte, iterBlock)
	diffB := make([]byte, iterBlock)
	predB := make([]byte, iterBlock*8*m)
	var thF, predF []float64
	for lo := 0; lo < n; lo += iterBlock {
		hi := lo + iterBlock
		if hi > n {
			hi = n
		}
		k := hi - lo
		for ci, b := range [][]byte{thB[:k*8], actB[:k], diffB[:k], predB[:k*8*m]} {
			c := r.lay.cols[ci]
			if _, err := r.f.ReadAt(b, int64(c.off+uint64(lo)*c.stride)); err != nil {
				return fmt.Errorf("reccache: reading block at %d: %w", lo, err)
			}
		}
		if v, ok := f64view(thB[:k*8]); ok {
			thF = v
		} else {
			if cap(thF) < k {
				thF = make([]float64, iterBlock)
			}
			thF = thF[:k]
			f64decode(thF, thB[:k*8])
		}
		if v, ok := f64view(predB[:k*8*m]); ok {
			predF = v
		} else {
			if cap(predF) < k*m {
				predF = make([]float64, iterBlock*m)
			}
			predF = predF[:k*m]
			f64decode(predF, predB[:k*8*m])
		}
		for i := 0; i < k; i++ {
			rec := core.WindowRecord{
				TrueHR:     thF[i],
				Activity:   dalia.Activity(actB[i]),
				Difficulty: int(diffB[i]),
				Header:     r.header,
				Preds:      predF[i*m : (i+1)*m : (i+1)*m],
			}
			if !fn(lo+i, &rec) {
				return nil
			}
		}
	}
	return nil
}
