package cli

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// parsers maps each CLI to its parse, on a fresh flag set that returns
// errors instead of exiting.
var parsers = map[string]func(args ...string) error{
	"chrissim": func(args ...string) error {
		_, err := ParseSim(newFlagSet(), args)
		return err
	},
	"chrisserve": func(args ...string) error {
		_, err := ParseServe(newFlagSet(), args)
		return err
	},
	"chrisfleet": func(args ...string) error {
		_, err := ParseFleet(newFlagSet(), args)
		return err
	},
}

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestNumericFlagsRejectNonFinite gives every numeric flag of every CLI
// NaN, ±Inf and a negative value. Parsing builds nothing, so each
// rejection happens before a suite or a fleet is built.
func TestNumericFlagsRejectNonFinite(t *testing.T) {
	numeric := map[string][]string{
		"chrissim":   {"gate", "mae", "energy", "seed", "hours", "dropout"},
		"chrisserve": {"gate", "mae", "energy", "seed", "sessions", "seconds", "rate", "cycles", "crashafter"},
		"chrisfleet": {"gate", "seed", "users", "days", "workers", "snapdays"},
	}
	// chrisfleet's own numbers are checked by fleet.Config.Validate,
	// which names the Config field.
	field := map[string]string{"users": "Users", "days": "Days", "workers": "Workers", "snapdays": "SnapshotDays"}
	for cli, names := range numeric {
		for _, name := range names {
			for _, v := range []string{"NaN", "Inf", "+Inf", "-Inf", "-1", "-0.5"} {
				err := parsers[cli]("-"+name, v)
				if err == nil {
					t.Errorf("%s -%s %s: accepted", cli, name, v)
					continue
				}
				want := "-" + name
				if f, ok := field[name]; ok && cli == "chrisfleet" && !strings.Contains(err.Error(), "invalid value") {
					want = f
				}
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s -%s %s: error %q does not name %s", cli, name, v, err, want)
				}
			}
		}
	}
	positive := map[string][]string{
		"chrissim":   {"energy", "hours"},
		"chrisserve": {"energy", "sessions", "seconds", "rate", "cycles"},
		"chrisfleet": {"users", "days"},
	}
	for cli, names := range positive {
		for _, name := range names {
			if parsers[cli]("-"+name, "0") == nil {
				t.Errorf("%s -%s 0: accepted", cli, name)
			}
		}
	}
}

// TestCrossFlagRules covers the rules between flags and the inputs that
// used to slip through: an endless toggle loop (-hours Inf with
// -dropout) and a scenario typo.
func TestCrossFlagRules(t *testing.T) {
	for _, tc := range []struct {
		cli  string
		args []string
		want string
	}{
		{"chrissim", []string{"-hours", "Inf", "-dropout", "300"}, "-hours"},
		{"chrissim", []string{"-faults", "bogus"}, "-faults"},
		{"chrisserve", []string{"-faults", "bogus"}, "-faults"},
		{"chrisserve", []string{"-resume"}, "-resume requires -checkpoint"},
		{"chrisserve", []string{"-crashafter", "-1"}, "-crashafter -1 is negative"},
		{"chrisserve", []string{"-virtual", "-crashafter", "4"}, "-crashafter requires -checkpoint"},
		{"chrisserve", []string{"-checkpoint", "f", "-crashafter", "4"}, "-crashafter requires -virtual"},
		{"chrisserve", []string{"-virtual", "-checkpoint", "f", "-cycles", "4", "-crashafter", "4"}, "-crashafter 4 must be below -cycles 4"},
		{"chrisfleet", []string{"-resume"}, "Resume requires a Checkpoint"},
		{"chrisfleet", []string{"-snapdays", "0.5"}, "SnapshotDays requires a Checkpoint"},
		{"chrisfleet", []string{"-mix", "bogus"}, "bogus"},
	} {
		err := parsers[tc.cli](tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: error %v, want one containing %q", tc.cli, tc.args, err, tc.want)
		}
	}
}

// TestDefaults pins what the default flags parse to, and that every
// replayed command line still parses.
func TestDefaults(t *testing.T) {
	pipeline := Pipeline{Quick: true, Energy: 0.3, Seed: 1}
	sim, err := ParseSim(newFlagSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Sim{Pipeline: pipeline, Hours: 24, Sensors: true}); *sim != want {
		t.Errorf("chrissim defaults %+v, want %+v", *sim, want)
	}
	srv, err := ParseServe(newFlagSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Serve{Pipeline: pipeline, Sessions: 32, Cycles: 64, Seconds: 10, Rate: 100}); *srv != want {
		t.Errorf("chrisserve defaults %+v, want %+v", *srv, want)
	}
	fl, err := ParseFleet(newFlagSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fleet.DefaultConfig()
	want.Users = 1000
	if fl.Flags != (Flags{}) || !reflect.DeepEqual(fl.Config, want) {
		t.Errorf("chrisfleet defaults %+v, want %+v", fl.Config, want)
	}

	for cli, lines := range map[string][]string{
		"chrissim": {
			"-quick -hours 2 -faults worstcase -seed 7 -json",
			"-quick -hours 2 -dropout 300 -json",
			"-quick -hours 2 -belief -gate 70 -seed 7 -json",
			"-mae 6 -energy 1e9",
		},
		"chrisserve": {
			"-virtual -sessions 16 -cycles 32 -faults worstcase -seed 7 -checkpoint f -crashafter 16 -json",
			"-virtual -sessions 16 -cycles 32 -faults worstcase -seed 7 -belief -gate 70 -checkpoint f -resume -json",
		},
		"chrisfleet": {
			"-users 2000 -days 1 -seed 1 -belief -gate 33 -workers 3 -json",
			"-users 10000 -days 1 -seed 1 -snapdays 0.5 -checkpoint f -json",
		},
	} {
		for _, line := range lines {
			if err := parsers[cli](strings.Fields(line)...); err != nil {
				t.Errorf("%s %s: %v", cli, line, err)
			}
		}
	}
}

// TestGateImpliesBelief: a positive -gate turns the belief filter on
// without -belief, in the suite CLIs and in the fleet's Config.
func TestGateImpliesBelief(t *testing.T) {
	sim, err := ParseSim(newFlagSet(), []string{"-gate", "70"})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.BeliefOn() || sim.Gate != 70 {
		t.Errorf("chrissim -gate 70: belief %v at gate %g", sim.BeliefOn(), sim.Gate)
	}
	if off, _ := ParseSim(newFlagSet(), nil); off.BeliefOn() {
		t.Error("chrissim defaults turn the belief filter on")
	}
	fl, err := ParseFleet(newFlagSet(), []string{"-gate", "33"})
	if err != nil {
		t.Fatal(err)
	}
	if b := fl.Config.Belief; !b.Enabled || !b.Smooth || b.GateBPM != 33 {
		t.Errorf("chrisfleet -gate 33: belief %+v, want it on, smoothing, at gate 33", b)
	}
}
