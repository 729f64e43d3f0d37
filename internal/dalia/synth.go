package dalia

import (
	"fmt"
	"math"
	"math/rand"
)

// Config controls dataset synthesis. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	// Seed makes the whole dataset deterministic. Subject k derives its
	// own generator from Seed and k, so subjects can be produced
	// independently and in any order.
	Seed int64
	// SampleRate in Hz for PPG and accelerometer (paper: 32 Hz).
	SampleRate float64
	// WindowSamples and StrideSamples define the analysis windows
	// (paper: 256 and 64, i.e. 8 s windows every 2 s).
	WindowSamples int
	StrideSamples int
	// Subjects is the cohort size (paper: 15).
	Subjects int
	// DurationScale uniformly scales every protocol activity duration.
	// 1.0 reproduces the full ≈37.5 h dataset; tests use much smaller
	// values.
	DurationScale float64
	// ArtifactCoupling scales how strongly wrist acceleration corrupts
	// the PPG channel. 1.0 is the calibrated default.
	ArtifactCoupling float64
	// SensorNoise is the white-noise sigma added to the PPG channel,
	// relative to the pulse amplitude.
	SensorNoise float64
	// HRShift adds a constant BPM offset to every activity's target band,
	// on top of the subject's own random hrOffset trait. The fleet layer
	// uses it as a per-user physiology knob; 0 (the default) reproduces
	// the original generator bitwise.
	HRShift float64
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		SampleRate:       32,
		WindowSamples:    256,
		StrideSamples:    64,
		Subjects:         15,
		DurationScale:    1.0,
		ArtifactCoupling: 1.0,
		SensorNoise:      0.06,
	}
}

// Validate reports whether the configuration is usable. Every numeric
// field must be finite: a NaN coupling, noise sigma or duration scale
// would not trip any threshold below (NaN compares false) and instead
// silently poison every generated sample, so degenerate parameters are
// rejected here rather than producing NaN signals downstream.
func (c Config) Validate() error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case !finite(c.SampleRate) || c.SampleRate <= 0:
		return fmt.Errorf("dalia: SampleRate must be positive and finite, got %v", c.SampleRate)
	case c.WindowSamples <= 0 || c.StrideSamples <= 0:
		return fmt.Errorf("dalia: window %d / stride %d must be positive", c.WindowSamples, c.StrideSamples)
	case c.Subjects <= 0:
		return fmt.Errorf("dalia: Subjects must be positive, got %d", c.Subjects)
	case !finite(c.DurationScale) || c.DurationScale <= 0:
		return fmt.Errorf("dalia: DurationScale must be positive and finite, got %v", c.DurationScale)
	case !finite(c.ArtifactCoupling) || c.ArtifactCoupling < 0:
		return fmt.Errorf("dalia: ArtifactCoupling must be non-negative and finite, got %v", c.ArtifactCoupling)
	case !finite(c.SensorNoise) || c.SensorNoise < 0:
		return fmt.Errorf("dalia: SensorNoise must be non-negative and finite, got %v", c.SensorNoise)
	case !finite(c.HRShift):
		return fmt.Errorf("dalia: HRShift must be finite, got %v", c.HRShift)
	}
	return nil
}

// Recording is one subject's full synchronized session.
type Recording struct {
	Subject int
	Rate    float64
	// PPG is the raw (artifact-corrupted) photoplethysmogram.
	PPG []float64
	// AccelX/Y/Z are the wrist accelerometer axes in g.
	AccelX, AccelY, AccelZ []float64
	// TrueHR is the instantaneous ground-truth heart rate (BPM) per
	// sample, the synthetic stand-in for the ECG chest-band reference.
	TrueHR []float64
	// Label is the per-sample activity annotation.
	Label []Activity
}

// Samples returns the recording length in samples.
func (r *Recording) Samples() int { return len(r.PPG) }

// subjectTraits are fixed per-subject physiological parameters.
type subjectTraits struct {
	hrOffset  float64    // BPM shift of every activity's target band
	hrTau     float64    // seconds, cardiac response time constant
	pulseAmp  float64    // PPG pulse amplitude
	dicrotic  float64    // relative dicrotic-wave amplitude
	respHz    float64    // respiration frequency
	rsaDepth  float64    // respiratory sinus arrhythmia depth, BPM
	couplingG [3]float64 // per-axis artifact coupling gains
	skinNoise float64    // extra multiplicative perfusion noise
}

func newSubjectTraits(rng *rand.Rand) subjectTraits {
	return subjectTraits{
		hrOffset:  rng.NormFloat64() * 6,
		hrTau:     25 + rng.Float64()*20,
		pulseAmp:  0.8 + rng.Float64()*0.6,
		dicrotic:  0.2 + rng.Float64()*0.25,
		respHz:    0.2 + rng.Float64()*0.12,
		rsaDepth:  1.5 + rng.Float64()*2.0,
		couplingG: [3]float64{0.9 + rng.Float64()*0.4, 0.7 + rng.Float64()*0.4, 0.5 + rng.Float64()*0.4},
		skinNoise: 0.02 + rng.Float64()*0.03,
	}
}

// GenerateSubject synthesizes the full recording for subject id
// (0 ≤ id < c.Subjects). It is deterministic in (c.Seed, id).
func GenerateSubject(c Config, id int) (*Recording, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= c.Subjects {
		return nil, fmt.Errorf("dalia: subject %d out of range 0..%d", id, c.Subjects-1)
	}
	rng := rand.New(rand.NewSource(c.Seed*1_000_003 + int64(id)*7919 + 17))
	traits := newSubjectTraits(rng)

	// Build the per-sample activity schedule.
	restShare := profiles[Resting].protocolMin / float64(restSlots())
	var schedule []Activity
	for _, act := range protocol {
		minutes := profiles[act].protocolMin
		if act == Resting {
			minutes = restShare
		}
		n := int(minutes * 60 * c.SampleRate * c.DurationScale)
		for i := 0; i < n; i++ {
			schedule = append(schedule, act)
		}
	}
	n := len(schedule)
	if n == 0 {
		return nil, fmt.Errorf("dalia: DurationScale %v too small: empty schedule", c.DurationScale)
	}

	rec := &Recording{
		Subject: id,
		Rate:    c.SampleRate,
		PPG:     make([]float64, n),
		AccelX:  make([]float64, n),
		AccelY:  make([]float64, n),
		AccelZ:  make([]float64, n),
		TrueHR:  make([]float64, n),
		Label:   schedule,
	}

	dt := 1 / c.SampleRate
	// When the session is time-compressed for tests/benchmarks, compress
	// the cardiac dynamics too so every bout still reaches steady state.
	tauScale := c.DurationScale
	if tauScale > 1 {
		tauScale = 1
	}
	if tauScale < 0.02 {
		tauScale = 0.02
	}
	hrTau := traits.hrTau * tauScale
	if hrTau < 0.5 {
		hrTau = 0.5
	}
	hr := profiles[schedule[0]].hrLow + traits.hrOffset + c.HRShift + 5
	phase := rng.Float64()
	respPhase := rng.Float64() * 2 * math.Pi
	drift := 0.0
	hrWander := 0.0
	// Per-activity cached target; re-rolled whenever the activity changes
	// so each bout lands somewhere in the activity's HR band.
	curAct := Activity(-1)
	hrTarget := hr
	motion := newMotionState(rng)

	for i := 0; i < n; i++ {
		act := schedule[i]
		p := profiles[act]
		if act != curAct {
			curAct = act
			span := p.hrHigh - p.hrLow
			hrTarget = p.hrLow + rng.Float64()*span + traits.hrOffset + c.HRShift
		}
		// Cardiac dynamics: first-order approach to the activity target,
		// a slow random wander, and respiratory sinus arrhythmia.
		hrWander += rng.NormFloat64() * 0.05
		hrWander *= 0.9995
		hr += (hrTarget - hr) * dt / hrTau
		respPhase += 2 * math.Pi * traits.respHz * dt
		inst := hr + hrWander + traits.rsaDepth*math.Sin(respPhase)
		if inst < 35 {
			inst = 35
		}
		if inst > 210 {
			inst = 210
		}
		rec.TrueHR[i] = inst

		// Accelerometer: gravity projection + activity motion.
		ax, ay, az := motion.step(rng, p, dt)
		rec.AccelX[i] = ax
		rec.AccelY[i] = ay
		rec.AccelZ[i] = az

		// PPG: pulse train at the instantaneous HR, respiration-coupled
		// baseline, slow drift, motion artifact, sensor noise.
		phase += inst / 60 * dt
		if phase >= 1 {
			phase -= 1
		}
		pulse := pulseShape(phase, traits.dicrotic)
		drift += rng.NormFloat64() * 0.002
		drift *= 0.999
		baseline := 0.25*math.Sin(respPhase) + drift
		perf := 1 + traits.skinNoise*math.Sin(2*math.Pi*0.01*float64(i)*dt+1.3)
		// Motion artifact: linear pickup of each axis' dynamic part plus a
		// rectified term that mimics light-leakage saturation events.
		dynX, dynY, dynZ := motion.dynamic()
		ma := traits.couplingG[0]*dynX + traits.couplingG[1]*dynY + traits.couplingG[2]*dynZ
		ma += 0.6 * math.Abs(dynX+dynZ)
		ma *= c.ArtifactCoupling
		noise := rng.NormFloat64() * c.SensorNoise * traits.pulseAmp
		rec.PPG[i] = traits.pulseAmp*perf*pulse + baseline + ma + noise
	}
	return rec, nil
}

// pulseShape evaluates a normalized PPG beat template at phase φ ∈ [0,1):
// a systolic peak followed by a dicrotic wave.
func pulseShape(phase, dicrotic float64) float64 {
	g := func(mu, sigma float64) float64 {
		d := phase - mu
		// Wrap so the template is periodic.
		if d > 0.5 {
			d -= 1
		}
		if d < -0.5 {
			d += 1
		}
		return math.Exp(-d * d / (2 * sigma * sigma))
	}
	return g(0.18, 0.10) + dicrotic*g(0.52, 0.14)
}

// motionState integrates the wrist-motion model: a slowly reorienting
// gravity vector plus periodic limb swing with harmonics and, for bursty
// activities, amplitude gating.
type motionState struct {
	gravTheta, gravPhi float64
	swingPhase         float64
	gate               float64 // burst envelope in [0,1]
	gateTarget         float64
	lastDyn            [3]float64
}

func newMotionState(rng *rand.Rand) *motionState {
	return &motionState{
		gravTheta: rng.Float64() * math.Pi,
		gravPhi:   rng.Float64() * 2 * math.Pi,
		gate:      1,
	}
}

// step advances one sample and returns the total acceleration per axis (g).
func (m *motionState) step(rng *rand.Rand, p profile, dt float64) (ax, ay, az float64) {
	// Gravity drifts slowly as the wrist reorients.
	m.gravTheta += rng.NormFloat64() * 0.002
	m.gravPhi += rng.NormFloat64() * 0.003
	gx := math.Sin(m.gravTheta) * math.Cos(m.gravPhi)
	gy := math.Sin(m.gravTheta) * math.Sin(m.gravPhi)
	gz := math.Cos(m.gravTheta)

	// Burst gating: bursty activities alternate quiet and violent spells.
	if rng.Float64() < dt/2.0 { // re-roll target every ~2 s on average
		if rng.Float64() < p.burstiness {
			m.gateTarget = rng.Float64() * 2.2
		} else {
			m.gateTarget = 0.7 + rng.Float64()*0.6
		}
	}
	m.gate += (m.gateTarget - m.gate) * dt * 4

	amp := p.motionRMS * m.gate
	var dx, dy, dz float64
	if p.stepHz > 0 {
		m.swingPhase += 2 * math.Pi * p.stepHz * dt * (1 + 0.02*rng.NormFloat64())
		s1 := math.Sin(m.swingPhase)
		s2 := math.Sin(2*m.swingPhase + 0.8)
		dx = amp * (1.1*s1 + 0.4*s2)
		dy = amp * (0.8*math.Sin(m.swingPhase+1.9) + 0.3*s2)
		dz = amp * (0.6*s2 + 0.5*math.Sin(m.swingPhase+0.5))
	}
	// Broadband jitter always present, scaled with activity intensity.
	dx += amp * 0.45 * rng.NormFloat64()
	dy += amp * 0.45 * rng.NormFloat64()
	dz += amp * 0.45 * rng.NormFloat64()

	m.lastDyn = [3]float64{dx, dy, dz}
	return gx + dx, gy + dy, gz + dz
}

// dynamic returns the gravity-free part of the last generated sample; this
// is what couples into the PPG as motion artifact.
func (m *motionState) dynamic() (x, y, z float64) {
	return m.lastDyn[0], m.lastDyn[1], m.lastDyn[2]
}
