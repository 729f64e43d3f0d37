package bench

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/belief"
)

// TestBeliefTableCache drives the suite's transition-prior cache: a warm
// load returns the learned table bitwise, and a frame bound to another
// config hash or a file with one flipped byte is a miss that relearns the
// same table and rewrites the same bytes.
func TestBeliefTableCache(t *testing.T) {
	s := *getQuickSuite(t)
	s.Cfg.CacheDir = t.TempDir()
	var lines []string
	s.Cfg.Progress = func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	path := filepath.Join(s.Cfg.CacheDir, "belief_"+s.Cfg.key()+".chss")
	// get calls BeliefTable and returns the table with the progress line
	// it logged.
	get := func() (*belief.Table, string) {
		t.Helper()
		lines = lines[:0]
		tab, err := s.BeliefTable()
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) != 1 {
			t.Fatalf("BeliefTable logged %q, want one line", lines)
		}
		return tab, lines[0]
	}
	same := func(what string, got, want *belief.Table) {
		t.Helper()
		if got.Grid != want.Grid || len(got.P) != len(want.P) {
			t.Fatalf("%s: grid %+v with %d cells, want %+v with %d", what, got.Grid, len(got.P), want.Grid, len(want.P))
		}
		for i := range want.P {
			if math.Float64bits(got.P[i]) != math.Float64bits(want.P[i]) {
				t.Fatalf("%s: cell %d is %v, want %v", what, i, got.P[i], want.P[i])
			}
		}
	}

	learned, line := get()
	if !strings.HasPrefix(line, "cached transition prior to") {
		t.Fatalf("cold call logged %q", line)
	}
	uncached := s
	uncached.Cfg.CacheDir = ""
	direct, err := uncached.BeliefTable()
	if err != nil {
		t.Fatal(err)
	}
	same("cold cache vs no cache", learned, direct)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	warm, line := get()
	if !strings.HasPrefix(line, "loaded cached transition prior") {
		t.Fatalf("warm call logged %q", line)
	}
	same("warm load", warm, learned)

	flipped := append([]byte(nil), want...)
	flipped[len(flipped)/2] ^= 0x10
	misses := map[string]func() error{
		"other config hash": func() error { return belief.SaveTable(learned, path, 0) },
		"flipped byte":      func() error { return os.WriteFile(path, flipped, 0o644) },
	}
	for name, spoil := range misses {
		if err := spoil(); err != nil {
			t.Fatal(err)
		}
		got, line := get()
		if !strings.HasPrefix(line, "cached transition prior to") {
			t.Fatalf("%s: logged %q, want a relearn", name, line)
		}
		same(name, got, learned)
		if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, want) {
			t.Fatalf("%s: cache not rewritten to the learned frame (err %v)", name, err)
		}
	}
}
