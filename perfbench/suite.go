package main

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/models/rf"
)

// suiteConfig is the paper suite the suite workloads run: the default
// configuration (int8 zoo) with its weight and record cache in dir.
func suiteConfig(dir string, progress func(string, ...any)) bench.SuiteConfig {
	cfg := bench.DefaultSuiteConfig()
	cfg.CacheDir = dir
	cfg.Progress = progress
	return cfg
}

// warmLoads is how many "loaded cached" progress lines a NewSuite with a
// warm cache logs: both networks and both record splits.
const warmLoads = 4

// cacheWatch counts the cache hits a suite build logs.
type cacheWatch struct {
	hits int
	log  func(string)
}

func (c *cacheWatch) progress(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if strings.HasPrefix(line, "loaded cached") {
		c.hits++
	}
	if c.log != nil {
		c.log(line)
	}
}

// primeSuite builds the paper suite once, untimed, so that every timed
// set-up finds a warm cache. A cache the build under test rejects (a
// format change, a truncated file) is rebuilt here: NewSuite retrains and
// rewrites whatever it fails to load. The belief prior is cached too.
func primeSuite(o options) error {
	w := &cacheWatch{log: func(line string) { fmt.Fprintln(o.log, "perfbench: prime: "+line) }}
	s, err := bench.NewSuite(suiteConfig(o.cacheDir, w.progress))
	if err != nil {
		return fmt.Errorf("priming the suite cache: %w", err)
	}
	if _, err := s.BeliefPolicy(); err != nil {
		return fmt.Errorf("priming the belief prior: %w", err)
	}
	if w.hits < warmLoads {
		fmt.Fprintln(o.log, "perfbench: prime: suite cache was (re)built")
	}
	return nil
}

// errColdCache reports a timed set-up that trained or re-inferred.
var errColdCache = errors.New("suite cache missed during a timed set-up")

// newSuite is one timed paper-suite build against the primed cache.
func newSuite(o options, tr *tracer) (*bench.Suite, error) {
	w := &cacheWatch{}
	id := tr.begin("bench.new_suite", -1, -1)
	s, err := bench.NewSuite(suiteConfig(o.cacheDir, w.progress))
	tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	if w.hits < warmLoads {
		return nil, errColdCache
	}
	return s, nil
}

// shadowSetup splits a suite set-up into its costly layers by re-running
// each one's public function on the suite's own inputs: dataset
// synthesis, difficulty-forest training and configuration profiling.
// The rest of NewSuite (loading weights and records, quantization,
// reports) is the residual.
func shadowSetup(s *bench.Suite, tr *tracer) error {
	parents := tr.named("bench.new_suite")
	if len(parents) == 0 {
		return errors.New("no suite set-up span")
	}
	parent := parents[len(parents)-1].ID
	cfg := s.Cfg
	var trainW []dalia.Window
	var err error
	tr.shadow("dalia.synth", parent, -1, 0, func() {
		dc := dalia.DefaultConfig()
		dc.Seed = cfg.Seed
		dc.Subjects = cfg.Subjects
		dc.DurationScale = cfg.DataScale
		var ds *dalia.Dataset
		if ds, err = dalia.New(dc); err != nil {
			return
		}
		trS, prS, teS, serr := ds.SplitSubjects(cfg.TrainSubjects, cfg.ProfileSubjects)
		if serr != nil {
			err = serr
			return
		}
		var pw, tw []dalia.Window
		if trainW, err = ds.CollectWindows(trS); err != nil {
			return
		}
		if pw, err = ds.CollectWindows(prS); err != nil {
			return
		}
		if tw, err = ds.CollectWindows(teS); err != nil {
			return
		}
		if len(trainW) != len(s.TrainWindows) || len(pw) != len(s.ProfileWindows) || len(tw) != len(s.TestWindows) {
			err = errors.New("shadow synthesis disagrees with the suite's window counts")
		}
	})
	if err != nil {
		return fmt.Errorf("shadow synthesis: %w", err)
	}
	tr.shadow("rf.train", parent, -1, len(trainW), func() {
		_, err = rf.Train(trainW, rf.DefaultConfig())
	})
	if err != nil {
		return fmt.Errorf("shadow forest training: %w", err)
	}
	tr.shadow("core.profile", parent, -1, len(s.ProfileRecords), func() {
		_, err = core.ProfileConfigs(s.Zoo.EnumerateConfigs(), s.ProfileRecords, s.Sys)
	})
	if err != nil {
		return fmt.Errorf("shadow profiling: %w", err)
	}
	return nil
}

// setupLayers reports the suite set-up split.
func setupLayers(tr *tracer, out map[string]float64) {
	newSuite, ok := tr.medianMs("bench.new_suite")
	if !ok {
		return
	}
	rest := newSuite
	for _, l := range []struct{ span, metric string }{
		{"dalia.synth", "dalia.synth_ms"},
		{"rf.train", "rf.train_ms"},
		{"core.profile", "core.profile_ms"},
	} {
		if v, ok := tr.medianMs(l.span); ok {
			out[l.metric] = v
			rest -= v
		}
	}
	out["bench.setup_residual_ms"] = rest
}
