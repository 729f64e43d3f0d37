package serve

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/sim"
)

// ErrStalled is wrapped into the error the watchdog reports when the
// coalescer stops making progress with work pending.
var ErrStalled = errors.New("serve: engine stalled")

// Config parameterizes an Engine. Engine and System are required;
// everything else has serviceable defaults (see Open).
type Config struct {
	// Engine is the profiled CHRIS decision engine shared (read-only) by
	// all sessions.
	Engine *core.Engine
	// System is the hardware model used for energy accounting and the
	// offload link.
	System *hw.System
	// Constraint is applied at every per-session configuration selection.
	Constraint core.Constraint

	// Clock is the engine's time source. nil selects a wall clock and
	// free-running mode (a pump goroutine drains mailboxes, a watchdog
	// guards progress). A *VirtualClock selects lockstep mode: nothing
	// runs until Tick(), and runs are deterministic.
	Clock Clock

	// Protocol tunes the offload state machine; zero value means
	// sim.DefaultProtocol().
	Protocol sim.Protocol
	// Faults selects the fault scenario applied to every session (each
	// session forks its own independent stream). nil means faults.None().
	Faults *faults.Scenario
	// FaultSeed is the base seed; per-session seeds are forked from it by
	// session ID, so adding a session never perturbs another's faults.
	FaultSeed uint64

	// MailboxDepth bounds each session's queue; a full mailbox drops at
	// admission (default 16).
	MailboxDepth int
	// HighWater is the shed threshold: a session collected with more than
	// this many queued windows degrades the whole batch to its simple
	// model (default MailboxDepth/2).
	HighWater int
	// BatchSize chunks the coalesced cross-session GEMM batches
	// (default 32).
	BatchSize int
	// MaxPending, when positive, bounds total queued windows across all
	// sessions; excess submissions are rejected at admission. It reads
	// engine-wide state, so it is a wall-mode guard — leave it zero in
	// deterministic runs.
	MaxPending int
	// DeadlineSeconds is each window's result deadline measured from
	// arrival (default System.PeriodSeconds).
	DeadlineSeconds float64

	// FlushSeconds is the wall-mode coalescing interval: how long the
	// pump waits to gather windows across sessions before running a cycle
	// (default 5 ms).
	FlushSeconds float64
	// WatchdogSeconds is how long the wall-mode watchdog tolerates
	// pending work without progress before failing the engine
	// (default 5 s; ignored in lockstep mode).
	WatchdogSeconds float64
	// OnStall, when non-nil, is called once from the watchdog goroutine
	// with the stall error.
	OnStall func(error)

	// Workers bounds the cycle's parallelism across sessions and
	// inference chunks (default GOMAXPROCS).
	Workers int

	// CheckpointPath, when non-empty, turns on crash durability: the
	// engine persists a complete state snapshot (every session's offload
	// machine, hysteresis, belief posterior, counters and undrained
	// results) to this path with the atomic partial-file+rename
	// discipline. In wall mode the pump checkpoints every
	// CheckpointSeconds; in lockstep mode the driver calls Checkpoint
	// explicitly (typically at quiesce, so resume has no holes). A failed
	// checkpoint write fails the engine loudly — durability is never
	// silently off.
	CheckpointPath string
	// CheckpointSeconds is the wall-mode checkpoint cadence
	// (default 1 s). Ignored in lockstep mode.
	CheckpointSeconds float64

	// Belief, when non-nil, runs a per-session temporal belief filter over
	// each stream: estimates are fused into a posterior over HR bins,
	// optionally smoothed (Policy.Smooth) and offloads demoted when the
	// predictive credible interval is already narrow (Policy.GateBPM). A
	// nil Belief reproduces the belief-free engine bitwise. The filter is
	// session-local cycle state: it survives restarts (a restart heals
	// pipeline state, it does not rewrite the stream's history).
	Belief *belief.Policy
}

// Engine multiplexes many independent PPG sessions over one model zoo:
// windows arrive asynchronously per session, a cycle coalesces every
// ready window across users into per-model batches for wide GEMM
// inference, and results flow back to each session's buffer. Sessions
// never share mutable state, so one user's panic, overload or fault
// storm cannot corrupt another's stream.
type Engine struct {
	cfg      Config
	clock    Clock
	lockstep bool
	scenario faults.Scenario
	cfgHash  uint64 // ConfigHash, fixed at Open

	mailboxDepth int
	highWater    int
	batchSize    int
	workers      int
	deadlineSec  float64

	mu       sync.Mutex // guards sessions and order
	sessions map[string]*Session
	order    []*Session // sorted by ID: the cycle's deterministic walk

	slots map[string]*modelSlot

	cycleMu  sync.Mutex // one cycle at a time; guards cyc
	cyc      cycleScratch
	pending  atomic.Int64
	progress atomic.Uint64
	closed   atomic.Bool

	errMu sync.Mutex
	err   error

	wake     chan struct{}
	stopCh   chan struct{}
	pumpDone chan struct{}
	failedCh chan struct{}
	failOnce sync.Once
}

// Open validates cfg, fills defaults, fixes the configuration
// fingerprint (ConfigHash) and starts the engine. In wall mode this
// launches the pump and watchdog goroutines; in lockstep mode (cfg.Clock
// is a *VirtualClock) no goroutine runs and the driver calls Tick.
//
// The engine keeps cfg and whatever it points to. Mutating the Config, or
// the belief Policy and transition Table it points to, after Open is
// unsupported: the fingerprint that checkpoints are bound to would no
// longer describe the engine.
func Open(cfg Config) (*Engine, error) {
	if cfg.Engine == nil {
		return nil, errors.New("serve: Config.Engine is required")
	}
	if cfg.System == nil {
		return nil, errors.New("serve: Config.System is required")
	}
	if cfg.MailboxDepth == 0 {
		cfg.MailboxDepth = 16
	}
	if cfg.MailboxDepth < 1 {
		return nil, fmt.Errorf("serve: MailboxDepth %d < 1", cfg.MailboxDepth)
	}
	if cfg.HighWater == 0 {
		cfg.HighWater = cfg.MailboxDepth / 2
	}
	if cfg.HighWater < 1 || cfg.HighWater > cfg.MailboxDepth {
		return nil, fmt.Errorf("serve: HighWater %d outside [1, MailboxDepth=%d]", cfg.HighWater, cfg.MailboxDepth)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 32
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("serve: BatchSize %d < 1", cfg.BatchSize)
	}
	if cfg.DeadlineSeconds == 0 {
		cfg.DeadlineSeconds = cfg.System.PeriodSeconds
	}
	if cfg.DeadlineSeconds < 0 {
		return nil, fmt.Errorf("serve: DeadlineSeconds %g < 0", cfg.DeadlineSeconds)
	}
	if cfg.FlushSeconds == 0 {
		cfg.FlushSeconds = 0.005
	}
	if cfg.WatchdogSeconds == 0 {
		cfg.WatchdogSeconds = 5
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("serve: Workers %d < 1", cfg.Workers)
	}
	if cfg.CheckpointSeconds == 0 {
		cfg.CheckpointSeconds = 1
	}
	if cfg.CheckpointSeconds < 0 {
		return nil, fmt.Errorf("serve: CheckpointSeconds %g < 0", cfg.CheckpointSeconds)
	}
	scenario := faults.None()
	if cfg.Faults != nil {
		scenario = *cfg.Faults
		if err := scenario.Validate(); err != nil {
			return nil, fmt.Errorf("serve: fault scenario: %w", err)
		}
	}
	if cfg.Belief != nil {
		if err := cfg.Belief.Validate(); err != nil {
			return nil, fmt.Errorf("serve: belief policy: %w", err)
		}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = NewWallClock()
	}
	_, lockstep := clock.(*VirtualClock)

	e := &Engine{
		cfg:          cfg,
		clock:        clock,
		lockstep:     lockstep,
		scenario:     scenario,
		mailboxDepth: cfg.MailboxDepth,
		highWater:    cfg.HighWater,
		batchSize:    cfg.BatchSize,
		workers:      cfg.Workers,
		deadlineSec:  cfg.DeadlineSeconds,
		sessions:     make(map[string]*Session),
		slots:        make(map[string]*modelSlot),
		wake:         make(chan struct{}, 1),
		stopCh:       make(chan struct{}),
		pumpDone:     make(chan struct{}),
		failedCh:     make(chan struct{}),
	}
	e.cfgHash = e.configHash()
	// One slot per distinct zoo model: every profile's simple and complex
	// estimator, deduplicated by name. Sessions only ever reference these
	// shared instances (or worker clones of them).
	for _, p := range cfg.Engine.Profiles() {
		for _, m := range []models.HREstimator{p.Simple, p.Complex} {
			if m == nil {
				continue
			}
			if _, ok := e.slots[m.Name()]; !ok {
				e.slots[m.Name()] = &modelSlot{name: m.Name(), base: m}
			}
		}
	}
	if !lockstep {
		go e.pump()
		go e.watchdog()
	} else {
		close(e.pumpDone) // nothing to wait for at Close
	}
	return e, nil
}

// NewSession registers a new user stream. The session's fault injector
// and random stream are forked from the engine seed by ID, so its fault
// history is a pure function of (scenario, seed, id) — independent of
// every other session and of registration order. The constraint must
// select a configuration in both link states, so that no reselection
// can fail mid-stream.
func (e *Engine) NewSession(id string) (*Session, error) {
	if id == "" {
		return nil, errors.New("serve: empty session id")
	}
	if e.closed.Load() {
		return nil, errors.New("serve: engine closed")
	}
	inj, err := faults.NewInjector(e.scenario, faults.NewRand(e.cfg.FaultSeed).Fork("session:"+id).Seed())
	if err != nil {
		return nil, fmt.Errorf("serve: session %q: %w", id, err)
	}
	s := &Session{id: id, eng: e}
	c := &e.cfg
	if s.step, err = sim.NewStep(c.System, c.Engine, c.Constraint, c.Protocol, inj, c.Belief); err != nil {
		return nil, fmt.Errorf("serve: session %q: %w", id, err)
	}
	if err := s.step.Feasible(); err != nil {
		return nil, fmt.Errorf("serve: session %q: %w", id, err)
	}
	if err := s.step.Start(e.clock.Now()); err != nil {
		return nil, fmt.Errorf("serve: session %q: %w", id, err)
	}
	s.stats.ActiveConfig = s.step.ActiveConfig()

	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.sessions[id]; dup {
		return nil, fmt.Errorf("serve: duplicate session id %q", id)
	}
	e.sessions[id] = s
	i := sort.Search(len(e.order), func(i int) bool { return e.order[i].id >= id })
	e.order = append(e.order, nil)
	copy(e.order[i+1:], e.order[i:])
	e.order[i] = s
	return s, nil
}

// Session returns a registered session, or nil.
func (e *Engine) Session(id string) *Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sessions[id]
}

// Pending returns the number of admitted windows not yet finalized.
func (e *Engine) Pending() int { return int(e.pending.Load()) }

// Tick runs one coalescing cycle synchronously: collect every session's
// mailbox, route, batch-infer, finalize. In lockstep mode this is the
// only way work happens; the virtual clock is frozen for the duration,
// so the cycle's completion timestamp — and therefore every outcome —
// is deterministic.
func (e *Engine) Tick() {
	e.runCycle()
}

// cycleScratch is the coalescer's working set: the cycle's session
// walk, per-session work lists, model groups, inference chunks and the
// batch arrays the chunks hand to the models. The engine owns one and
// reuses it under cycleMu, so a steady-state cycle allocates nothing.
type cycleScratch struct {
	sessions []*Session
	work     [][]job
	groups   []jobGroup
	chunks   []chunk
	// batch and hr back every chunk's window copies and estimates; the
	// chunks partition them, so parallel chunks never share an element.
	batch []dalia.Window
	hr    []float64
	// carry is the scratch Session.encode saves each step into.
	carry sim.Carry

	now, completion float64
}

// jobGroup is one coalesced (model, sample length) batch of a cycle.
type jobGroup struct {
	model string
	n     int
	jobs  []*job
}

// chunk is one inference unit: at most BatchSize jobs of one group on one
// model slot, with its slices of the cycle's batch arrays.
type chunk struct {
	slot *modelSlot
	jobs []*job
	win  []dalia.Window
	out  []float64
}

// cycleStage names the parallel stages of a cycle, so the worker loop
// dispatches on a value instead of capturing a closure per stage.
type cycleStage uint8

const (
	stageRoute cycleStage = iota
	stageInfer
	stageFinalize
)

// runStage runs element i of a parallel stage.
func (e *Engine) runStage(st cycleStage, i int) {
	c := &e.cyc
	switch st {
	case stageRoute:
		s := c.sessions[i]
		c.work[i] = s.stage1(c.now, s.collect())
	case stageInfer:
		e.inferChunk(&c.chunks[i])
	case stageFinalize:
		c.sessions[i].finalize(c.completion, c.work[i])
	}
}

// runCycle is the coalescer: the heart of the engine.
func (e *Engine) runCycle() {
	e.cycleMu.Lock()
	defer e.cycleMu.Unlock()
	c := &e.cyc

	e.mu.Lock()
	c.sessions = append(c.sessions[:0], e.order...)
	e.mu.Unlock()
	n := len(c.sessions)
	if n == 0 {
		return
	}
	defer c.release()
	c.now = e.clock.Now()

	// Stage 1 — collect + route, parallel across sessions, sequential
	// (submission order) within each: deadline triage, overload shedding,
	// dispatch and the offload protocol all touch only session-local
	// state.
	if cap(c.work) < n {
		c.work = make([][]job, n)
	}
	c.work = c.work[:n]
	e.parallel(n, stageRoute)

	// Stage 2 — coalesce across sessions: group runnable windows by
	// (model, sample length) so each group is one wide GEMM batch.
	// Session order makes group composition deterministic; batched
	// inference is bitwise identical to serial inference, so composition
	// cannot affect results either way.
	c.groups = c.groups[:0]
	runnable := 0
	for i := range c.work {
		for k := range c.work[i] {
			j := &c.work[i][k]
			if j.skip || j.route.Model == nil {
				continue
			}
			gr := c.group(j.model, len(j.w.PPG))
			gr.jobs = append(gr.jobs, j)
			runnable++
		}
	}
	slices.SortFunc(c.groups, func(a, b jobGroup) int {
		if a.model != b.model {
			return strings.Compare(a.model, b.model)
		}
		return a.n - b.n
	})

	// Stage 3 — inference, parallel across chunks. Chunks draw worker
	// clones from the model slot free lists; non-cloneable models
	// serialize on their slot mutex.
	if cap(c.batch) < runnable {
		c.batch = make([]dalia.Window, runnable)
		c.hr = make([]float64, runnable)
	}
	c.chunks = c.chunks[:0]
	off := 0
	for g := range c.groups {
		gr := &c.groups[g]
		slot := e.slots[gr.model]
		for js := gr.jobs; len(js) > 0; {
			k := min(e.batchSize, len(js))
			if slot == nil {
				// A model outside the zoo (restored mid-cycle state);
				// serve it serially through a transient slot.
				slot = &modelSlot{name: gr.model, base: js[0].route.Model}
			}
			c.chunks = append(c.chunks, chunk{slot: slot, jobs: js[:k], win: c.batch[off : off+k], out: c.hr[off : off+k]})
			js, off = js[k:], off+k
		}
	}
	e.parallel(len(c.chunks), stageInfer)

	// An inference-stage panic marks jobs (stage-1 panics already carry
	// OutcomePanic and restarted inline); restart each affected session
	// once, sequentially and in deterministic order, before results are
	// sealed.
	for i, s := range c.sessions {
		for k := range c.work[i] {
			if c.work[i][k].panicked && c.work[i][k].outcome != OutcomePanic {
				s.restart(c.now)
				break
			}
		}
	}

	// Stage 4 — finalize, parallel across sessions, submission order
	// within each. The cycle has a single completion timestamp: frozen
	// `now` under a virtual clock, the post-inference instant on a wall
	// clock (late-result discard needs real elapsed time).
	c.completion = c.now
	if !e.lockstep {
		c.completion = e.clock.Now()
	}
	e.parallel(n, stageFinalize)
}

// group returns the cycle's group for (model, n), opening it (and reusing
// a previous cycle's job list) on first sight. A cycle has a handful of
// groups, so a linear scan beats a map.
func (c *cycleScratch) group(model string, n int) *jobGroup {
	for g := range c.groups {
		if gr := &c.groups[g]; gr.model == model && gr.n == n {
			return gr
		}
	}
	if len(c.groups) < cap(c.groups) {
		c.groups = c.groups[:len(c.groups)+1]
	} else {
		c.groups = append(c.groups, jobGroup{})
	}
	gr := &c.groups[len(c.groups)-1]
	gr.model, gr.n, gr.jobs = model, n, gr.jobs[:0]
	return gr
}

// release drops the scratch's references to sessions, jobs and windows
// once a cycle is sealed, so a detached session or a caller's window is
// not kept alive until the next cycle overwrites them.
func (c *cycleScratch) release() {
	clear(c.sessions)
	clear(c.work)
	for g := range c.groups {
		clear(c.groups[g].jobs)
	}
	clear(c.chunks)
	clear(c.batch)
}

// inferChunk runs one coalesced batch on one model instance; a batch
// model takes every chunk, a lone window included, as one batch. A batch
// panic falls back to per-window inference with per-window recovery, so
// one poisoned window costs itself (OutcomePanic) and not its
// batch-mates — a window's estimate does not depend on its batch-mates,
// so the fallback is invisible in the healthy windows' results.
func (e *Engine) inferChunk(ch *chunk) {
	m, shared := ch.slot.acquire()
	defer ch.slot.release(m, shared)

	if batcher, ok := m.(models.BatchHREstimator); ok {
		if tryBatch(batcher, ch) {
			return
		}
	}
	for _, j := range ch.jobs {
		e.inferOne(m, j)
	}
}

// tryBatch attempts the batched path; it reports false (leaving all jobs
// unestimated, to be retried window by window) if the batch panicked.
func tryBatch(m models.BatchHREstimator, ch *chunk) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	for i, j := range ch.jobs {
		ch.win[i] = *j.w
	}
	m.EstimateHRBatch(ch.win, ch.out)
	for i, j := range ch.jobs {
		j.hr = ch.out[i]
	}
	return true
}

// inferOne runs one window with panic isolation.
func (e *Engine) inferOne(m models.HREstimator, j *job) {
	defer func() {
		if r := recover(); r != nil {
			j.panicked = true
			j.skip = true
		}
	}()
	j.hr = m.EstimateHR(j.w)
}

// parallel runs stage element 0..n-1 over at most e.workers goroutines.
// n == 0 is a no-op; n == 1 or workers == 1 runs inline.
func (e *Engine) parallel(n int, st cycleStage) {
	if n == 0 {
		return
	}
	w := min(e.workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			e.runStage(st, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				e.runStage(st, i)
			}
		}()
	}
	wg.Wait()
}

// wakePump nudges the wall-mode pump; a no-op in lockstep mode.
func (e *Engine) wakePump() {
	if e.lockstep {
		return
	}
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// pump is the wall-mode drain loop: a cycle per flush interval, pulled
// earlier by submissions, until Close. On shutdown it drains every
// pending window before exiting.
func (e *Engine) pump() {
	defer close(e.pumpDone)
	tick := time.NewTicker(time.Duration(e.cfg.FlushSeconds * float64(time.Second)))
	defer tick.Stop()
	lastCk := time.Now()
	ckInterval := time.Duration(e.cfg.CheckpointSeconds * float64(time.Second))
	for {
		select {
		case <-e.stopCh:
			for e.pending.Load() > 0 {
				e.runCycle()
			}
			e.maybeCheckpoint(&lastCk, 0)
			return
		case <-e.failedCh:
			return
		case <-e.wake:
		case <-tick.C:
		}
		e.runCycle()
		e.maybeCheckpoint(&lastCk, ckInterval)
	}
}

// maybeCheckpoint persists a snapshot when durability is on and the
// cadence elapsed. A write failure fails the engine: a server that thinks
// it is durable but is not must not keep running silently.
func (e *Engine) maybeCheckpoint(last *time.Time, every time.Duration) {
	if e.cfg.CheckpointPath == "" || time.Since(*last) < every {
		return
	}
	if err := e.Checkpoint(e.cfg.CheckpointPath); err != nil {
		e.fail(fmt.Errorf("serve: checkpoint: %w", err))
		return
	}
	*last = time.Now()
}

// watchdog fails the engine loudly when windows are pending but the
// coalescer has stopped finalizing them — a wedged cycle (deadlocked
// model, livelocked pump) must not present as silent latency.
func (e *Engine) watchdog() {
	interval := time.Duration(e.cfg.WatchdogSeconds / 2 * float64(time.Second))
	if interval <= 0 {
		interval = time.Second
	}
	var lastProgress uint64
	stalledFor := time.Duration(0)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-e.pumpDone:
			// Watch until the pump actually exits (not merely until Close
			// is requested): the shutdown drain can wedge too.
			return
		case <-e.failedCh:
			return
		case <-t.C:
		}
		p := e.progress.Load()
		if e.pending.Load() > 0 && p == lastProgress {
			stalledFor += interval
			if stalledFor.Seconds() >= e.cfg.WatchdogSeconds {
				e.fail(fmt.Errorf("%w: %d windows pending, no progress for %s",
					ErrStalled, e.pending.Load(), stalledFor))
				return
			}
		} else {
			stalledFor = 0
		}
		lastProgress = p
	}
}

// fail records err, marks the engine closed, and unblocks Close.
func (e *Engine) fail(err error) {
	e.failOnce.Do(func() {
		e.errMu.Lock()
		e.err = err
		e.errMu.Unlock()
		e.closed.Store(true)
		close(e.failedCh)
		if e.cfg.OnStall != nil {
			e.cfg.OnStall(err)
		}
	})
}

// Err returns the engine's terminal error (the watchdog's stall report),
// or nil.
func (e *Engine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// Close drains and stops the engine: mailboxes reject new work
// immediately, already-admitted windows are processed to completion, and
// the pump and watchdog exit. Idempotent; safe to call concurrently.
// After a watchdog failure Close does not wait for the wedged cycle.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		// Already closing or failed: wait for whichever terminal event
		// lands first.
		select {
		case <-e.pumpDone:
		case <-e.failedCh:
		}
		return e.Err()
	}
	if e.lockstep {
		for e.pending.Load() > 0 {
			e.runCycle()
		}
		close(e.stopCh)
		return e.Err()
	}
	close(e.stopCh)
	select {
	case <-e.pumpDone:
	case <-e.failedCh:
	}
	return e.Err()
}
