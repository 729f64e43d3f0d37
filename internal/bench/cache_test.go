package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/reccache"
)

func sampleRecords(n int) []core.WindowRecord {
	header := core.NewRecordHeader("a", "b")
	recs := make([]core.WindowRecord, n)
	for i := range recs {
		recs[i] = core.WindowRecord{
			TrueHR:     float64(60 + i),
			Activity:   dalia.Activity(i % dalia.NumActivities),
			Difficulty: 1 + i%9,
			Header:     header,
			Preds:      []float64{float64(i), float64(2 * i)},
		}
	}
	return recs
}

func recordsEqual(t *testing.T, got, want []core.WindowRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].TrueHR != want[i].TrueHR || got[i].Activity != want[i].Activity ||
			got[i].Difficulty != want[i].Difficulty {
			t.Fatalf("record %d round-trip mismatch: %+v vs %+v", i, got[i], want[i])
		}
		for j := range want[i].Preds {
			if got[i].Preds[j] != want[i].Preds[j] {
				t.Fatalf("record %d pred %d: %v vs %v", i, j, got[i].Preds[j], want[i].Preds[j])
			}
		}
	}
}

func TestRecordCacheRoundTrip(t *testing.T) {
	recs := sampleRecords(7)
	path := filepath.Join(t.TempDir(), "records.chrc")
	if err := saveRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := loadRecords(path, len(recs))
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, got, recs)
}

// TestRecordCacheStaleCountBeforeDecode: the stale-count check must come
// from the header alone. The wrong-length load fails identically on an
// intact and on a column-corrupted file — proof the columns were never
// consulted.
func TestRecordCacheStaleCountBeforeDecode(t *testing.T) {
	recs := sampleRecords(9)
	path := filepath.Join(t.TempDir(), "records.chrc")
	if err := saveRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	_, err := loadRecords(path, len(recs)+3)
	if err == nil || !strings.Contains(err.Error(), "stale record cache") {
		t.Fatalf("stale cache not detected: %v", err)
	}

	// Corrupt every byte past the tables; the stale error must not change.
	data, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatal(readErr)
	}
	r, openErr := reccache.Open(path)
	if openErr != nil {
		t.Fatal(openErr)
	}
	r.Close()
	for i := 256; i < len(data); i++ { // past header + tables for 2 models
		data[i] ^= 0xFF
	}
	if writeErr := os.WriteFile(path, data, 0o644); writeErr != nil {
		t.Fatal(writeErr)
	}
	_, err2 := loadRecords(path, len(recs)+3)
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("stale check touched column data: %v vs %v", err2, err)
	}
}

// TestRecordCacheRejectsTruncatedFile is the regression test for the
// columnar header's pre-decode validation: a cache cut off mid-column is
// rejected at open time.
func TestRecordCacheRejectsTruncatedFile(t *testing.T) {
	recs := sampleRecords(32)
	path := filepath.Join(t.TempDir(), "records.chrc")
	if err := saveRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadRecords(path, len(recs)); err == nil {
		t.Fatal("truncated cache accepted")
	} else if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("unexpected truncation error: %v", err)
	}
	// And the historical failure mode: a tiny fragment.
	if err := os.WriteFile(path, []byte("CH"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadRecords(path, len(recs)); err == nil {
		t.Fatal("fragment accepted")
	}
}

func TestRecordCacheRejectsForeignFile(t *testing.T) {
	// A stream in the retired gob cache layout ("CHRR", version 2, then
	// gob bytes) is not a columnar cache and must read as a miss.
	path := filepath.Join(t.TempDir(), "old.gob")
	foreign := []byte("CHRR\x02\x00\x00\x00\x3b\xff\x81\x03\x01\x01\x0a\x72\x65\x63\x6f\x72\x64\x46\x69\x6c\x65")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadRecords(path, 3); err == nil {
		t.Fatal("foreign CHRR file accepted by the columnar loader")
	}
}

// TestSuiteRecordResumeByteIdentical kills a record build mid-suite (the
// writer checkpointed at k < N records), reruns obtainRecords with Resume
// set, and asserts the completed cache is byte-identical to the one an
// uninterrupted run writes — the resume acceptance criterion of the
// columnar cache.
func TestSuiteRecordResumeByteIdentical(t *testing.T) {
	s := getQuickSuite(t)
	ws := s.TestWindows
	names := make([]string, 0, 3)
	for _, m := range s.Zoo.Models() {
		names = append(names, m.Name())
	}

	// Uninterrupted run.
	fullSuite := *s
	fullSuite.Cfg.CacheDir = t.TempDir()
	fullRecs, err := fullSuite.obtainRecords("test", ws)
	if err != nil {
		t.Fatal(err)
	}
	fullPath := filepath.Join(fullSuite.Cfg.CacheDir, "records_test_"+fullSuite.Cfg.key()+".chrc")
	fullBytes, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: a writer that checkpointed k records and died.
	resSuite := *s
	resSuite.Cfg.CacheDir = t.TempDir()
	resSuite.Cfg.Resume = true
	resPath := filepath.Join(resSuite.Cfg.CacheDir, "records_test_"+resSuite.Cfg.key()+".chrc")
	k := len(ws) / 3
	if k == 0 {
		t.Fatalf("quick suite has only %d test windows", len(ws))
	}
	w, err := reccache.Create(resPath, names, len(ws))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSegment(0, fullRecs[:k]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // checkpoint + abandon, as a kill would
		t.Fatal(err)
	}

	resRecs, err := resSuite.obtainRecords("test", ws)
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, resRecs, fullRecs)
	resBytes, err := os.ReadFile(resPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullBytes, resBytes) {
		t.Fatal("resumed cache differs byte-for-byte from uninterrupted run")
	}
	if _, err := os.Stat(reccache.PartialPath(resPath)); !os.IsNotExist(err) {
		t.Fatal("partial file left behind after finalize")
	}
}
