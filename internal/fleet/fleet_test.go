package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sim"
)

// testConfig is a fleet small enough for CI but broad enough to cross
// every cohort scenario (clean and fault-injected paths) and both
// constraint kinds.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Users = 24
	cfg.Days = 0.02
	cfg.Seed = 1
	return cfg
}

func mustJSON(t *testing.T, s *Summary) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("summary does not encode: %v", err)
	}
	return b
}

// TestWorkerCountInvariance pins the tentpole determinism claim: the same
// seed produces a deep-equal (and byte-identical) summary for 1, 4 and
// GOMAXPROCS workers.
func TestWorkerCountInvariance(t *testing.T) {
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var want *Summary
	var wantJSON []byte
	for _, w := range counts {
		cfg := testConfig()
		cfg.Workers = w
		sum, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want, wantJSON = sum, mustJSON(t, sum)
			continue
		}
		if !reflect.DeepEqual(sum, want) {
			t.Fatalf("workers=%d summary differs from workers=%d", w, counts[0])
		}
		if got := mustJSON(t, sum); string(got) != string(wantJSON) {
			t.Fatalf("workers=%d JSON differs from workers=%d", w, counts[0])
		}
	}
	if want.Users != 24 {
		t.Fatalf("summary covers %d users, want 24", want.Users)
	}
	if want.Windows <= 0 {
		t.Fatal("summary reports no windows")
	}
}

// TestSingleUserExtraction pins the seed-fork contract: any fleet user
// replayed standalone through SimulateUser on a freshly built Fleet is
// deep-equal to that user's result inside a concurrent whole-fleet run.
func TestSingleUserExtraction(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	var mu sync.Mutex
	inFleet := make(map[int]*UserResult)
	cfg.OnUser = func(r *UserResult) {
		mu.Lock()
		inFleet[r.ID] = r
		mu.Unlock()
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(inFleet) != cfg.Users {
		t.Fatalf("OnUser saw %d users, want %d", len(inFleet), cfg.Users)
	}

	standalone, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 7, 23} {
		solo, err := standalone.SimulateUser(id)
		if err != nil {
			t.Fatalf("user %d standalone: %v", id, err)
		}
		fl := inFleet[id]
		if fl == nil {
			t.Fatalf("user %d missing from fleet run", id)
		}
		if !reflect.DeepEqual(solo.Result, fl.Result) {
			t.Fatalf("user %d: standalone sim.Result differs from fleet run", id)
		}
		if solo.Metrics != fl.Metrics || solo.Cohort != fl.Cohort || solo.Relaxed != fl.Relaxed {
			t.Fatalf("user %d: standalone metrics differ from fleet run", id)
		}
	}
}

// TestCheckpointResume kills a fleet run mid-shard and resumes it: the
// finished summary must be byte-identical to an uninterrupted run's, and
// the checkpoint must finalize onto its published path.
func TestCheckpointResume(t *testing.T) {
	base, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	baseJSON := mustJSON(t, base)

	dir := t.TempDir()
	ck := filepath.Join(dir, "fleet.rec")

	cfg := testConfig()
	cfg.Workers = 2
	cfg.Checkpoint = ck
	cfg.Interrupt = func(done int) bool { return done >= 8 }
	if _, err := Run(cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if _, err := os.Stat(ck); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("final checkpoint %s published by an interrupted run", ck)
	}

	res := testConfig()
	res.Workers = 2
	res.Checkpoint = ck
	res.Resume = true
	sum, err := Run(res)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := mustJSON(t, sum); string(got) != string(baseJSON) {
		t.Fatal("resumed summary differs from uninterrupted run")
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("finished run did not publish the checkpoint: %v", err)
	}

	// A checkpointed uninterrupted run must also match.
	fresh := testConfig()
	fresh.Checkpoint = filepath.Join(dir, "fresh.rec")
	sum2, err := Run(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, sum2); string(got) != string(baseJSON) {
		t.Fatal("checkpointed summary differs from checkpoint-free run")
	}
}

// TestResumeRejectsChangedConfig pins the geometry guard: a partial
// checkpoint written under one configuration must refuse to resume under
// another instead of silently mixing two populations.
func TestResumeRejectsChangedConfig(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "fleet.rec")

	cfg := testConfig()
	cfg.Checkpoint = ck
	cfg.Interrupt = func(done int) bool { return done >= 5 }
	if _, err := Run(cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}

	changed := testConfig()
	changed.Seed = 2 // any summary-affecting knob must invalidate the file
	changed.Checkpoint = ck
	changed.Resume = true
	if _, err := Run(changed); err == nil {
		t.Fatal("resume under a changed seed succeeded; want geometry rejection")
	}
}

// snapConfig is testConfig with mid-day sidecar snapshots on: four
// segments per simulated user, one worker so the interrupt point is
// deterministic.
func snapConfig(ck string) Config {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Checkpoint = ck
	cfg.SnapshotDays = cfg.Days / 4
	return cfg
}

// sidecars lists the live mid-day snapshot files under ck's state dir.
func sidecars(t *testing.T, ck string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(ck+".state", "u*.chss"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// interruptMidDay runs cfg (a snapConfig) with an interrupt that fires
// on the 10th poll — mid-way through a user's day, between sidecar
// writes — and returns the interrupted user's sidecar paths.
func interruptMidDay(t *testing.T, cfg Config) []string {
	t.Helper()
	calls := 0
	cfg.Interrupt = func(done int) bool { calls++; return calls >= 10 }
	if _, err := Run(cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	live := sidecars(t, cfg.Checkpoint)
	if len(live) == 0 {
		t.Fatal("mid-day interrupt left no sidecar snapshot")
	}
	return live
}

// TestSnapshotMidDayResume pins the fleet half of the durability
// tentpole: a run interrupted mid-way through a user's simulated day
// resumes from that user's sidecar snapshot and finishes with a summary
// byte-identical to an uninterrupted run's, and neither path leaves the
// state directory behind.
func TestSnapshotMidDayResume(t *testing.T) {
	base, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	baseJSON := mustJSON(t, base)
	dir := t.TempDir()

	// Segmented but uninterrupted: byte-identical, state dir cleaned up.
	seg := snapConfig(filepath.Join(dir, "seg.rec"))
	sum, err := Run(seg)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, sum); string(got) != string(baseJSON) {
		t.Fatal("segmented summary differs from monolithic run")
	}
	if _, err := os.Stat(seg.Checkpoint + ".state"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("finished run left the state dir behind: %v", err)
	}

	// Interrupt mid-day, then resume from the sidecar.
	ck := filepath.Join(dir, "fleet.rec")
	interruptMidDay(t, snapConfig(ck))
	res := snapConfig(ck)
	res.Resume = true
	sum, err = Run(res)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := mustJSON(t, sum); string(got) != string(baseJSON) {
		t.Fatal("mid-day resumed summary differs from uninterrupted run")
	}
	if _, err := os.Stat(ck + ".state"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("resumed run left the state dir behind: %v", err)
	}
}

// TestSnapshotCorruptSidecarDegrades pins deterministic degradation: a
// truncated, bit-flipped or garbage sidecar is rejected by the snapshot
// codec, and a forged one — sealed with a valid CRC under the fleet's
// config hash, but holding a state the user cannot resume — fails the
// resume typed. Either way the affected user silently re-simulates from
// zero, so the resumed summary still matches the uninterrupted run byte
// for byte instead of the error aborting the whole fleet. The belief
// layer is on, so the sidecars carry a posterior to forge.
func TestSnapshotCorruptSidecarDegrades(t *testing.T) {
	withBelief := func(cfg Config) Config {
		cfg.Belief = BeliefConfig{Enabled: true, Smooth: true, GateBPM: 20}
		return cfg
	}
	base, err := Run(withBelief(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	baseJSON := mustJSON(t, base)
	hashed := withBelief(testConfig())
	if err := hashed.Validate(); err != nil {
		t.Fatal(err)
	}
	hash := hashed.hash64()
	// forge re-seals a pristine sidecar after mod edits its state.
	forge := func(mod func(st *sim.State)) func(t *testing.T, b []byte) []byte {
		return func(t *testing.T, b []byte) []byte {
			st, err := sim.DecodeState(b, hash)
			if err != nil {
				t.Fatalf("pristine sidecar rejected: %v", err)
			}
			mod(st)
			return sim.EncodeState(st, hash)
		}
	}

	corrupt := []struct {
		name string
		mut  func(*testing.T, []byte) []byte
	}{
		{"truncated", func(_ *testing.T, b []byte) []byte { return b[:len(b)/2] }},
		{"bitflip", func(_ *testing.T, b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{"garbage", func(*testing.T, []byte) []byte { return []byte("not a snapshot") }},
		{"NaN posterior bin", forge(func(st *sim.State) { st.Carry.Post[0] = math.NaN() })},
		{"2-bin posterior", forge(func(st *sim.State) { st.Carry.Post = st.Carry.Post[:2] })},
		{"unknown configuration", forge(func(st *sim.State) { st.Carry.Active = "no-such-config" })},
		{"no belief", forge(func(st *sim.State) { st.Carry.Belief, st.Carry.Post = false, nil })},
		{"no battery", forge(func(st *sim.State) { st.HasBattery = false })},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			cfg := withBelief(snapConfig(filepath.Join(t.TempDir(), "fleet.rec")))
			for _, path := range interruptMidDay(t, cfg) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, tc.mut(t, data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cfg.Resume = true
			sum, err := Run(cfg)
			if err != nil {
				t.Fatalf("resume over %s sidecar: %v", tc.name, err)
			}
			if got := mustJSON(t, sum); string(got) != string(baseJSON) {
				t.Fatalf("%s sidecar perturbed the resumed summary", tc.name)
			}
		})
	}
}

// TestSnapshotDaysValidation pins the knob's guard rails.
func TestSnapshotDaysValidation(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotDays = 0.005
	if err := cfg.Validate(); err == nil {
		t.Fatal("SnapshotDays without Checkpoint validated")
	}
	cfg.Checkpoint = "x.rec"
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid snapshot config rejected: %v", err)
	}
	cfg.SnapshotDays = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative SnapshotDays validated")
	}
}

// TestResumeWithoutPartialStartsFresh covers the first night of a
// checkpointed cron job: -resume with no partial file behaves like a
// fresh run rather than failing.
func TestResumeWithoutPartialStartsFresh(t *testing.T) {
	cfg := testConfig()
	cfg.Checkpoint = filepath.Join(t.TempDir(), "fleet.rec")
	cfg.Resume = true
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Users != cfg.Users {
		t.Fatalf("fresh -resume run covered %d users, want %d", sum.Users, cfg.Users)
	}
}

// TestSummaryDayGolden pins a whole fleet — 64 users for one simulated
// day on the default cohort mix, clean and fault-injected users alike —
// as a JSON golden of its Summary, so any drift in user build, the
// per-window step or aggregation shows up bitwise.
func TestSummaryDayGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 64
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "summary_64users_1day.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), got) {
		t.Errorf("fleet summary drifted from the golden:\n%s", got)
	}
}
