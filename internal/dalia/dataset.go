package dalia

import "fmt"

// Dataset is a lazy handle over the synthetic cohort: recordings are
// produced per subject on demand so that the full 37.5-hour dataset never
// needs to be resident at once.
type Dataset struct {
	cfg   Config
	cache map[int]*Recording
}

// New returns a dataset handle for the given configuration.
func New(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Dataset{cfg: cfg, cache: make(map[int]*Recording)}, nil
}

// Recording returns (generating and caching on first use) the recording of
// one subject.
func (d *Dataset) Recording(subject int) (*Recording, error) {
	if rec, ok := d.cache[subject]; ok {
		return rec, nil
	}
	rec, err := GenerateSubject(d.cfg, subject)
	if err != nil {
		return nil, err
	}
	d.cache[subject] = rec
	return rec, nil
}

// Release drops a cached recording so its memory can be reclaimed.
func (d *Dataset) Release(subject int) { delete(d.cache, subject) }

// SubjectWindows returns the analysis windows of one subject. The windows
// alias the cached recording; call Release only after the windows are no
// longer needed.
func (d *Dataset) SubjectWindows(subject int) ([]Window, error) {
	rec, err := d.Recording(subject)
	if err != nil {
		return nil, err
	}
	return Windows(rec, d.cfg.WindowSamples, d.cfg.StrideSamples), nil
}

// CollectWindows concatenates the windows of several subjects. Recordings
// of the listed subjects stay cached (the windows alias them).
func (d *Dataset) CollectWindows(subjects []int) ([]Window, error) {
	var out []Window
	for _, s := range subjects {
		ws, err := d.SubjectWindows(s)
		if err != nil {
			return nil, err
		}
		out = append(out, ws...)
	}
	return out, nil
}

// SplitSubjects partitions the cohort into three disjoint subject sets with
// the given counts (train, profile, test) in subject order; it is the
// split the CHRIS profiling pipeline uses.
func (d *Dataset) SplitSubjects(train, profile int) (trainS, profileS, testS []int, err error) {
	total := d.cfg.Subjects
	if train+profile >= total {
		return nil, nil, nil, fmt.Errorf("dalia: split %d+%d leaves no test subjects of %d", train, profile, total)
	}
	for s := 0; s < total; s++ {
		switch {
		case s < train:
			trainS = append(trainS, s)
		case s < train+profile:
			profileS = append(profileS, s)
		default:
			testS = append(testS, s)
		}
	}
	return trainS, profileS, testS, nil
}
