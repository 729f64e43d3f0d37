package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/models/at"
	"repro/internal/models/rf"
	"repro/internal/models/tcn"
	"repro/internal/reccache"
)

// SuiteConfig sizes the experiment pipeline.
type SuiteConfig struct {
	// Dataset.
	Subjects  int
	DataScale float64
	Seed      int64
	// Subject split: the first TrainSubjects train the networks and the
	// difficulty detector, the next ProfileSubjects profile the
	// configurations, the rest are the held-out test set.
	TrainSubjects   int
	ProfileSubjects int
	// TrainStride subsamples training windows (every k-th) to bound
	// pure-Go training time.
	TrainStride int
	// Epochs of TCN training for TimePPG-Big.
	Epochs int
	// SmallEpochs trains TimePPG-Small separately: the small network is
	// cheap to train, and a longer schedule places its accuracy between
	// AT and Big as in the paper (0 = same as Epochs).
	SmallEpochs int
	// Quantized deploys the TCNs in int8 (as the paper does); the float
	// networks remain available for the quantization ablation.
	Quantized bool
	// CacheDir, when non-empty, caches trained weights (and derived
	// records) keyed by the configuration, so repeated harness runs skip
	// training. Missing directory entries are (re)built.
	CacheDir string
	// Resume continues an interrupted record build from the partial
	// columnar cache's checkpoint instead of starting over — only the
	// windows past the checkpoint are re-inferred, and (because every zoo
	// model computes windows independently) the completed cache is
	// byte-identical to an uninterrupted run's. Ignored when the zoo
	// contains sequential models or no usable partial file exists.
	Resume bool
	// Progress, when non-nil, receives status lines.
	Progress func(format string, args ...interface{})
}

// DefaultSuiteConfig is the full experiment configuration used by
// cmd/chrisbench and the repository benchmarks.
func DefaultSuiteConfig() SuiteConfig {
	return SuiteConfig{
		Subjects:        15,
		DataScale:       0.06,
		Seed:            1,
		TrainSubjects:   10,
		ProfileSubjects: 2,
		TrainStride:     2,
		Epochs:          10,
		SmallEpochs:     16,
		Quantized:       true,
		CacheDir:        "testdata/cache",
	}
}

// QuickSuiteConfig is a scaled-down pipeline for unit tests.
func QuickSuiteConfig() SuiteConfig {
	return SuiteConfig{
		Subjects:        4,
		DataScale:       0.02,
		Seed:            1,
		TrainSubjects:   2,
		ProfileSubjects: 1,
		TrainStride:     1,
		Epochs:          2,
		Quantized:       false,
	}
}

func (c SuiteConfig) logf(format string, args ...interface{}) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// key identifies the configuration for cache file names.
func (c SuiteConfig) key() string {
	return fmt.Sprintf("s%d_d%g_n%d_tr%d_pr%d_st%d_e%d_se%d_q%v",
		c.Seed, c.DataScale, c.Subjects, c.TrainSubjects, c.ProfileSubjects,
		c.TrainStride, c.Epochs, c.epochsFor(true), c.Quantized)
}

// epochsFor returns the training-epoch budget of the small or big network.
func (c SuiteConfig) epochsFor(small bool) int {
	if small && c.SmallEpochs > 0 {
		return c.SmallEpochs
	}
	return c.Epochs
}

// Suite is the assembled experiment state.
type Suite struct {
	Cfg        SuiteConfig
	Sys        *hw.System
	AT         models.HREstimator
	Small      *tcn.HRNet
	Big        *tcn.HRNet
	Zoo        *core.Zoo
	Classifier *rf.Classifier
	// ProfileRecords/Profiles come from the profiling subjects — the
	// table stored in the watch MCU. ProfileWindows are the windows the
	// records were built from, index-aligned (the belief layer fits its
	// motion-scaled observation sigmas against them).
	ProfileRecords []core.WindowRecord
	ProfileWindows []dalia.Window
	Profiles       []core.Profile
	// TrainWindows come from the training subjects (the transition-prior
	// learning set of the belief layer).
	TrainWindows []dalia.Window
	// TestWindows/TestRecords come from held-out subjects.
	TestWindows []dalia.Window
	TestRecords []core.WindowRecord
	// Reports holds per-model accuracy on the test split.
	Reports map[string]eval.ModelReport
	// Dataset handle (kept for scenario tools).
	Dataset *dalia.Dataset
}

// NewSuite builds the full pipeline.
func NewSuite(cfg SuiteConfig) (*Suite, error) {
	if cfg.TrainSubjects+cfg.ProfileSubjects >= cfg.Subjects {
		return nil, fmt.Errorf("bench: split %d+%d needs test subjects out of %d",
			cfg.TrainSubjects, cfg.ProfileSubjects, cfg.Subjects)
	}
	dc := dalia.DefaultConfig()
	dc.Seed = cfg.Seed
	dc.Subjects = cfg.Subjects
	dc.DurationScale = cfg.DataScale
	ds, err := dalia.New(dc)
	if err != nil {
		return nil, err
	}
	trainS, profS, testS, err := ds.SplitSubjects(cfg.TrainSubjects, cfg.ProfileSubjects)
	if err != nil {
		return nil, err
	}

	cfg.logf("generating windows (train %v, profile %v, test %v)", trainS, profS, testS)
	trainW, err := ds.CollectWindows(trainS)
	if err != nil {
		return nil, err
	}
	profW, err := ds.CollectWindows(profS)
	if err != nil {
		return nil, err
	}
	testW, err := ds.CollectWindows(testS)
	if err != nil {
		return nil, err
	}

	s := &Suite{Cfg: cfg, Sys: hw.NewSystem(), Dataset: ds, TrainWindows: trainW, TestWindows: testW}

	// Difficulty detector on the training subjects.
	cfg.logf("training difficulty detector (%d windows)", len(trainW))
	cls, err := rf.Train(trainW, rf.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := s.Sys.IMU.CheckFit(cls); err != nil {
		return nil, fmt.Errorf("bench: forest does not fit the sensor ML core: %w", err)
	}
	s.Classifier = cls

	// HR models.
	s.AT = at.New()
	strided := strideWindows(trainW, cfg.TrainStride)
	samples := tcn.WindowsToSamples(strided)
	small, err := s.obtainNet(tcn.SmallName, tcn.NewTimePPGSmall, samples)
	if err != nil {
		return nil, err
	}
	big, err := s.obtainNet(tcn.BigName, tcn.NewTimePPGBig, samples)
	if err != nil {
		return nil, err
	}
	s.Small = tcn.NewEstimator(small)
	s.Big = tcn.NewEstimator(big)
	if cfg.Quantized {
		calib := calibTensors(profW, 64)
		if err := s.Small.Quantize(calib); err != nil {
			return nil, err
		}
		if err := s.Big.Quantize(calib); err != nil {
			return nil, err
		}
	}

	zoo, err := core.NewZoo(s.AT, s.Small, s.Big)
	if err != nil {
		return nil, err
	}
	s.Zoo = zoo

	// Records + profiling.
	cfg.logf("building records (profile %d, test %d windows)", len(profW), len(testW))
	s.ProfileRecords, err = s.obtainRecords("profile", profW)
	if err != nil {
		return nil, err
	}
	s.ProfileWindows = profW
	s.TestRecords, err = s.obtainRecords("test", testW)
	if err != nil {
		return nil, err
	}
	s.Profiles, err = core.ProfileConfigs(zoo.EnumerateConfigs(), s.ProfileRecords, s.Sys)
	if err != nil {
		return nil, err
	}

	// Per-model test reports from the precomputed records.
	s.Reports = map[string]eval.ModelReport{}
	for _, m := range zoo.Models() {
		mi, ok := s.TestRecords[0].Header.Index(m.Name())
		if !ok {
			return nil, fmt.Errorf("bench: test records lack predictions for %q", m.Name())
		}
		preds := make([]float64, len(testW))
		for i := range s.TestRecords {
			preds[i] = s.TestRecords[i].Preds[mi]
		}
		rep, err := eval.EvaluatePredictions(m.Name(), preds, testW)
		if err != nil {
			return nil, err
		}
		s.Reports[m.Name()] = rep
	}
	return s, nil
}

// obtainNet loads a cached trained network or trains and caches one.
func (s *Suite) obtainNet(name string, build func() *tcn.Network, samples []tcn.Sample) (*tcn.Network, error) {
	cfg := s.Cfg
	var path string
	if cfg.CacheDir != "" {
		path = filepath.Join(cfg.CacheDir, fmt.Sprintf("%s_%s.tcnw", name, cfg.key()))
		if net, err := tcn.Load(path); err == nil {
			cfg.logf("loaded cached %s from %s", name, path)
			return net, nil
		}
	}
	epochs := cfg.epochsFor(name == tcn.SmallName)
	cfg.logf("training %s on %d samples (%d epochs)", name, len(samples), epochs)
	net := build()
	net.InitWeights(cfg.Seed + 7)
	tc := tcn.DefaultTrainConfig()
	tc.Epochs = epochs
	tc.Seed = cfg.Seed + 13
	tc.Progress = func(epoch int, loss float64) { cfg.logf("  %s epoch %d loss %.4f", name, epoch, loss) }
	if _, err := tcn.Fit(net, samples, tc); err != nil {
		return nil, err
	}
	if path != "" {
		if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
			return nil, err
		}
		if err := tcn.Save(net, path); err != nil {
			return nil, err
		}
		cfg.logf("cached %s to %s", name, path)
	}
	return net, nil
}

// checkpointSink streams finished record segments into a columnar writer
// and checkpoints the contiguous prefix after each one, so a killed run
// loses at most the chunks still in flight.
type checkpointSink struct{ w *reccache.Writer }

func (s checkpointSink) WriteSegment(start int, recs []core.WindowRecord) error {
	if err := s.w.WriteSegment(start, recs); err != nil {
		return err
	}
	return s.w.Flush()
}

// obtainRecords loads cached records or builds and caches them. Builds
// stream through a columnar reccache.Writer: workers persist each chunk
// as it completes, and with cfg.Resume a rerun picks up from the last
// checkpoint of an interrupted build instead of starting over.
func (s *Suite) obtainRecords(split string, ws []dalia.Window) ([]core.WindowRecord, error) {
	cfg := s.Cfg
	zoo := s.Zoo.Models()
	if cfg.CacheDir == "" {
		return eval.BuildRecords(ws, zoo, s.Classifier)
	}
	path := filepath.Join(cfg.CacheDir, fmt.Sprintf("records_%s_%s.chrc", split, cfg.key()))

	if recs, err := loadRecords(path, len(ws)); err == nil {
		cfg.logf("loaded cached %s records from %s", split, path)
		return recs, nil
	}

	names := make([]string, len(zoo))
	for i, m := range zoo {
		names[i] = m.Name()
	}
	var w *reccache.Writer
	var prefix []core.WindowRecord
	start := 0
	if cfg.Resume && eval.AllCloneable(zoo) {
		if rw, err := reccache.Resume(path, names, len(ws)); err == nil {
			if k := rw.Count(); k > 0 {
				pr, err := reccache.Open(reccache.PartialPath(path))
				if err == nil {
					prefix, err = pr.Records()
					pr.Close()
				}
				if err == nil {
					w, start = rw, k
					cfg.logf("resuming %s records at %d/%d", split, start, len(ws))
				} else {
					rw.Close() // unreadable checkpoint: rebuild from scratch
				}
			} else {
				w = rw // empty partial, reuse as a fresh writer
			}
		}
	}
	if w == nil {
		var err error
		prefix, start = nil, 0
		if w, err = reccache.Create(path, names, len(ws)); err != nil {
			return nil, err
		}
	}

	recs, err := eval.BuildRecordsSink(ws, zoo, s.Classifier, checkpointSink{w}, start)
	if err != nil {
		w.Close()
		return nil, err
	}
	if err := w.Finalize(); err != nil {
		return nil, err
	}
	if start == 0 {
		return recs, nil
	}
	return append(prefix, recs...), nil
}

func strideWindows(ws []dalia.Window, k int) []dalia.Window {
	if k <= 1 {
		return ws
	}
	var out []dalia.Window
	for i := 0; i < len(ws); i += k {
		out = append(out, ws[i])
	}
	return out
}

func calibTensors(ws []dalia.Window, n int) []*tcn.Tensor {
	if n > len(ws) {
		n = len(ws)
	}
	var out []*tcn.Tensor
	step := 1
	if n > 0 {
		step = len(ws) / n
		if step < 1 {
			step = 1
		}
	}
	for i := 0; i < len(ws) && len(out) < n; i += step {
		out = append(out, tcn.WindowToTensor(&ws[i]))
	}
	return out
}
