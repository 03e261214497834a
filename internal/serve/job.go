package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/osn"
)

// Job types accepted by the service.
const (
	// TypeSample draws Count nodes from the design's target distribution
	// with WALK-ESTIMATE.
	TypeSample = "sample"
	// TypeEstimateMean is TypeSample followed by the design-appropriate
	// population-mean estimator over the Attr attribute.
	TypeEstimateMean = "estimate-mean"
	// TypeWalkPath runs one plain forward walk of Count steps and streams
	// the visited nodes (a raw-walk debugging and warm-up primitive).
	TypeWalkPath = "walk-path"
)

// JobSpec is the client-supplied description of a sampling job. The zero
// value of every field selects a documented default; Submit normalizes the
// spec (fills defaults, clamps Workers to the manager's per-job budget) and
// the normalized spec is what the job's determinism contract is stated
// over: two jobs with equal normalized specs produce identical sample
// sequences, regardless of cache warmth or concurrent traffic.
type JobSpec struct {
	Type    string `json:"type,omitempty"`    // sample (default) | estimate-mean | walk-path
	Design  string `json:"design,omitempty"`  // srw (default) | mhrw
	Count   int    `json:"count,omitempty"`   // samples to draw / steps to walk; default 10
	Seed    int64  `json:"seed,omitempty"`    // RNG seed; default 1
	Workers int    `json:"workers,omitempty"` // estimation workers; default 1, clamped per job

	// Start is the walk's starting node; nil selects the engine default
	// (the max-degree node).
	Start *int `json:"start,omitempty"`
	// WalkLength is WE's t; 0 selects the engine default (2·D̄+1).
	WalkLength int `json:"walklen,omitempty"`
	// CrawlHops is the initial-crawl radius h; 0 means 2.
	CrawlHops int `json:"hops,omitempty"`
	// NoCrawl and NoWeighted disable the paper's two variance-reduction
	// heuristics, which the service enables by default.
	NoCrawl    bool `json:"no_crawl,omitempty"`
	NoWeighted bool `json:"no_weighted,omitempty"`
	// BackwardReps and VarianceBudget parameterize the backward estimator
	// (0 = core defaults).
	BackwardReps   int `json:"backward_reps,omitempty"`
	VarianceBudget int `json:"variance_budget,omitempty"`
	// Attr is the attribute estimate-mean aggregates; default "degree".
	Attr string `json:"attr,omitempty"`
	// DeadlineMS, when > 0, bounds the job's run phase: the run context
	// gets this deadline, backend resilience waits are cut short by it, and
	// an overrun fails the job with reason "deadline_exceeded" — samples
	// streamed before the deadline remain valid and delivered.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// Sample is one streamed output row: an accepted sample (or, for walk-path
// jobs, a visited node), its walk steps, and the fleet-wide query cost right
// after it was produced.
type Sample struct {
	Index int   `json:"i"`
	Node  int   `json:"node"`
	Steps int   `json:"steps"`
	Cost  int64 `json:"cost"`
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Typed failure reasons attached to failed jobs (JobStatus.FailureReason).
const (
	// ReasonBackendUnavailable marks a job failed because the access layer
	// exhausted its retry policy (or the circuit breaker refused service).
	ReasonBackendUnavailable = "backend_unavailable"
	// ReasonDeadlineExceeded marks a job that overran its deadline_ms.
	ReasonDeadlineExceeded = "deadline_exceeded"
)

// JobResult is the summary attached to a finished job.
type JobResult struct {
	Samples int `json:"samples"`
	// Partial marks the result of a failed job: everything recorded here
	// (and every streamed sample) was produced — and remains valid — before
	// the failure; only the remainder is missing.
	Partial bool `json:"partial,omitempty"`
	// Queries is the fleet meter's growth over this job's run: the unique
	// nodes the job actually had to pay for. Under a warm cache this
	// shrinks toward zero — the amortization the service exists for. (With
	// jobs running concurrently the delta includes their interleaved
	// charges; it is exact when the job ran alone.)
	Queries int64 `json:"queries"`
	// FleetQueries is the service-wide unique-node cost after the job.
	FleetQueries int64 `json:"fleet_queries"`
	// AcceptanceRate is WE's accepted/attempted candidates (sample jobs).
	AcceptanceRate float64 `json:"acceptance_rate,omitempty"`
	// Estimate is the population-mean estimate (estimate-mean jobs).
	Estimate *float64 `json:"estimate,omitempty"`
	// Nodes is the accepted sample sequence, in order.
	Nodes []int `json:"nodes,omitempty"`
	// Cached marks a job served from the result cache: the rows and summary
	// were replayed from an earlier completed run of the same digest, with
	// zero new walk steps and zero new query charges (Queries is 0).
	Cached bool `json:"cached,omitempty"`
}

// JobStatus is the JSON snapshot served for GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	Error string   `json:"error,omitempty"`
	// FailureReason is the typed cause of a failed job:
	// "backend_unavailable" or "deadline_exceeded" (empty otherwise).
	FailureReason string `json:"failure_reason,omitempty"`
	// Digest is the job's canonical content address — SpecDigest over
	// (graph id, normalized spec) — so clients can correlate repeat
	// submissions with the cached result they will hit.
	Digest  string     `json:"digest,omitempty"`
	Samples int        `json:"samples"`
	QueueMS float64    `json:"queue_ms"`
	RunMS   float64    `json:"run_ms"`
	Result  *JobResult `json:"result,omitempty"`
}

// Job is one submitted sampling job. All mutable state is guarded by mu;
// samples is append-only, published under mu with cond broadcast so any
// number of streamers can follow along.
type Job struct {
	m      *Manager
	id     string
	seq    int64  // numeric id suffix, persisted for id continuity across restarts
	digest string // canonical content address (SpecDigest of the normalized spec)
	spec   JobSpec
	ctx    context.Context
	cancel context.CancelCauseFunc

	// recovered marks a job re-admitted from the journal at boot for a
	// deterministic re-run; durable is the count of samples already in the
	// journal (the resume path suppresses re-appends below it). journaled,
	// when non-nil, is closed once the accepted record is durable — every
	// later append for the job waits on it, so the journal's per-job record
	// order is admission, progress, terminal even across goroutines.
	recovered bool
	durable   atomic.Int64
	journaled chan struct{}

	mu        sync.Mutex
	cond      sync.Cond
	state     JobState
	errMsg    string
	reason    string // typed failure reason (failed jobs)
	samples   []Sample
	result    *JobResult
	runState  any // the Runner's own per-job state; opaque to the Manager
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func newJob(m *Manager, id string, spec JobSpec, now time.Time) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &Job{m: m, id: id, spec: spec, ctx: ctx, cancel: cancel,
		state: JobQueued, submitted: now}
	j.cond.L = &j.mu
	return j
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Digest returns the job's canonical content address (the result-cache key).
func (j *Job) Digest() string { return j.digest }

// Spec returns the normalized spec the job runs under.
func (j *Job) Spec() JobSpec { return j.spec }

// RunState returns the state its Runner keeps for the job (Placement.State,
// or what it set with SetRunState); nil for result-cache hits.
func (j *Job) RunState() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.runState
}

// SetRunState replaces the Runner's per-job state.
func (j *Job) SetRunState(v any) {
	j.mu.Lock()
	j.runState = v
	j.mu.Unlock()
}

// expired reports whether the job is terminal and finished before cutoff
// (the retention sweeper's eviction test).
func (j *Job) expired(cutoff time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal() && !j.finished.IsZero() && j.finished.Before(cutoff)
}

// Status returns a point-in-time snapshot of the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:            j.id,
		State:         j.state,
		Spec:          j.spec,
		Error:         j.errMsg,
		FailureReason: j.reason,
		Digest:        j.digest,
		Samples:       len(j.samples),
		Result:        j.result,
	}
	if !j.started.IsZero() {
		st.QueueMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = float64(end.Sub(j.started)) / float64(time.Millisecond)
	} else if !j.finished.IsZero() {
		st.QueueMS = float64(j.finished.Sub(j.submitted)) / float64(time.Millisecond)
	}
	return st
}

// Begin moves a queued job to running and reports whether it did (false
// when the job was cancelled while it waited). Runners call it once, when
// execution starts.
func (j *Job) Begin() bool {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	wait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	j.m.met.queueWait.Observe(wait)
	j.m.met.jobsInFlight.Add(1)
	return true
}

// Publish appends a row whose index continues the job's sample log, wakes
// every streamer, and advances the journaled durable high-water mark. A row
// already in the log is dropped: a re-run replaying its deterministic prefix
// — after a hand-off between workers or a restart — extends the stream
// exactly where it stopped.
func (j *Job) Publish(s Sample) {
	j.mu.Lock()
	if s.Index != len(j.samples) {
		j.mu.Unlock()
		return
	}
	j.samples = append(j.samples, s)
	n := len(j.samples)
	j.cond.Broadcast()
	j.mu.Unlock()
	j.m.met.samples.Add(1)
	// On a resumed job the re-run's first k samples fall inside the
	// already-durable prefix and append nothing.
	j.m.journalProgress(j, n)
}

// Finish moves the job to a terminal state; only the first call counts. A
// clean completion is memoized in the result cache, and the terminal record
// is journaled.
func (j *Job) Finish(state JobState, errMsg, reason string, result *JobResult) {
	j.m.terminate(j, false, state, errMsg, reason, result)
}

// finish classifies a local run's outcome. On failure the typed cause
// becomes JobStatus.FailureReason and any partial result (samples produced
// before the failure) is kept with Partial set.
func (j *Job) finish(result *JobResult, err error) {
	var bu *osn.BackendUnavailableError
	switch {
	case err == nil:
		j.Finish(JobDone, "", "", result)
	case errors.Is(err, context.Canceled) && !errors.As(err, &bu):
		j.Finish(JobCancelled, err.Error(), "", nil)
	default:
		reason := ""
		switch {
		case errors.As(err, &bu):
			reason = ReasonBackendUnavailable
		case errors.Is(err, context.DeadlineExceeded):
			reason = ReasonDeadlineExceeded
		}
		if result != nil {
			result.Partial = true
		}
		j.Finish(JobFailed, err.Error(), reason, result)
	}
}

// abandon ends a job its runner left unfinished at Close, in memory only:
// streamers see a terminal state, and no terminal record is journaled, so
// the next boot resumes the job.
func (j *Job) abandon() {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.state = JobCancelled
		j.errMsg = "abandoned: " + ErrClosed.Error()
		j.finished = time.Now()
		j.cond.Broadcast()
	}
	j.mu.Unlock()
	j.cancel(ErrClosed)
}

// wake re-evaluates every streamer's wait condition (used when a streaming
// client disconnects, so its goroutine can notice and leave).
func (j *Job) wake() {
	j.mu.Lock()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// waitSamples blocks until samples beyond from exist, the job is terminal,
// or ctx is cancelled; it returns the new samples (safe to read unlocked —
// the slice is append-only) and whether the job is terminal.
func (j *Job) waitSamples(ctx context.Context, from int) ([]Sample, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for from >= len(j.samples) && !j.state.Terminal() && ctx.Err() == nil {
		j.cond.Wait()
	}
	return j.samples[from:], j.state.Terminal()
}

// ErrQueueFull is returned by Submit when admission control rejects a job
// because the bounded queue is at capacity.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrClosed is returned by Submit after the manager has been closed.
var ErrClosed = errors.New("serve: manager closed")

// Config bounds the service's concurrency. Zero fields select defaults.
type Config struct {
	// QueueDepth bounds jobs admitted but not yet running (default 64).
	// Submissions beyond it fail fast with ErrQueueFull — the service
	// sheds load instead of building an unbounded backlog.
	QueueDepth int
	// Runners is the number of jobs run concurrently (default 2).
	Runners int
	// WorkerBudget is the global pool of estimation-worker slots carved up
	// among running jobs (default 4·Runners). A job holds exactly its
	// normalized Workers slots for its whole run — never a dynamic share,
	// which would break per-(seed, workers) determinism.
	WorkerBudget int
	// MaxWorkersPerJob clamps a spec's Workers (default WorkerBudget).
	MaxWorkersPerJob int
	// Retention is how long a terminal job's record (status, result, and
	// streamed samples) stays queryable after the job finishes; a
	// background sweeper evicts older records so the jobs map of a daemon
	// serving millions of requests stays bounded by the active window
	// instead of growing forever. Zero selects the default (15 minutes);
	// negative disables eviction. Running and queued jobs are never
	// evicted.
	Retention time.Duration
	// SweepInterval is how often the sweeper scans for expired records.
	// Zero selects the default: Retention/10, clamped to [1s, 1m].
	SweepInterval time.Duration
	// Journal, when non-nil, attaches the durability layer: job admissions,
	// durable-sample progress, and terminal statuses are journaled, and the
	// journal's replayed state is recovered at construction — terminal jobs
	// rehydrate into the retained table, incomplete jobs resume via a
	// deterministic re-run. Open it with OpenJournal; the manager takes
	// ownership and closes it on Close.
	Journal *Journal
	// CacheBytes bounds the content-addressed job result cache (see
	// cache.go): completed jobs are memoized by spec digest and repeat
	// submissions are served from the retained record with zero new walk
	// steps or charges. Zero selects DefaultCacheBytes (64 MiB); negative
	// disables the cache.
	CacheBytes int64
	// Logf, when non-nil, receives one line per job admission (id + digest,
	// and whether it was served from the result cache). weserve wires it to
	// its process log.
	Logf func(format string, args ...any)
}

// DefaultRetention is the terminal-job record retention used when
// Config.Retention is zero.
const DefaultRetention = 15 * time.Minute

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = 4 * c.Runners
	}
	if c.MaxWorkersPerJob <= 0 || c.MaxWorkersPerJob > c.WorkerBudget {
		c.MaxWorkersPerJob = c.WorkerBudget
	}
	if c.Retention == 0 {
		c.Retention = DefaultRetention
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.Retention / 10
		if c.SweepInterval < time.Second {
			c.SweepInterval = time.Second
		}
		if c.SweepInterval > time.Minute {
			c.SweepInterval = time.Minute
		}
	}
	return c
}

// Manager owns everything about a job except running it: the job table and
// ids, admission through the result cache, the journal, retention, and the
// job counters. Its Runner runs the jobs — on the local engine for a
// daemon, on remote workers for a fleet coordinator.
type Manager struct {
	eng *Engine // nil when the runner is not local
	run Runner
	cfg Config
	met *Metrics

	// results memoizes completed jobs by spec digest (nil when disabled).
	// Admission consults it before placement, so hits bypass admission
	// control entirely — a repeat submission is served even while the
	// queue is shedding fresh work.
	results *ResultCache

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for List
	seq    int64
	closed bool

	stopSweep chan struct{} // closed by Close to stop the retention sweeper
	sweepWG   sync.WaitGroup
	drained   chan struct{} // closed when Close has finished

	// Durability state (see recover.go). jl is atomic so a crash-simulating
	// test can detach it mid-flight; Close swaps it out before closing.
	jl             atomic.Pointer[Journal]
	recovering     atomic.Bool
	recoverPending atomic.Int64 // resumed jobs not yet terminal
	recoverStart   time.Time
	recoveryDur    atomic.Int64 // ns, set when recovery completes
}

// NewManager starts a manager that runs jobs on the engine: cfg.Runners
// runner goroutines over a bounded queue and a global worker budget.
func NewManager(eng *Engine, cfg Config) *Manager {
	m := newManager(cfg)
	m.eng = eng
	m.run = newLocalRunner(m, eng, m.cfg)
	m.start()
	return m
}

// NewManagerWith starts a manager whose jobs run on run (a fleet
// coordinator's remote runner). Only cfg's retention, journal, result-cache
// and logging fields apply; the queue and worker budget are the local
// runner's.
func NewManagerWith(run Runner, cfg Config) *Manager {
	m := newManager(cfg)
	m.run = run
	m.start()
	return m
}

func newManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:          cfg,
		met:          NewMetrics(),
		jobs:         make(map[string]*Job),
		stopSweep:    make(chan struct{}),
		drained:      make(chan struct{}),
		recoverStart: time.Now(),
	}
	if cfg.CacheBytes > 0 {
		m.results = NewResultCache(cfg.CacheBytes)
	}
	return m
}

// start recovers the journal and starts the retention sweeper.
func (m *Manager) start() {
	if m.cfg.Journal != nil {
		m.jl.Store(m.cfg.Journal)
		m.recoverFromJournal(m.cfg.Journal)
		m.cfg.Journal.SetSnapshot(m.snapshotRecords)
	}
	if m.cfg.Retention > 0 {
		m.sweepWG.Add(1)
		go m.sweeper()
	}
}

// sweeper periodically evicts terminal job records older than the
// configured retention.
func (m *Manager) sweeper() {
	defer m.sweepWG.Done()
	t := time.NewTicker(m.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopSweep:
			return
		case now := <-t.C:
			m.Sweep(now)
		}
	}
}

// Sweep evicts every terminal job that finished more than the configured
// retention before now, freeing its record (status, result, samples) for
// garbage collection, and returns how many it evicted. Queued and running
// jobs are untouched — eviction is purely a bookkeeping bound, it never
// affects job execution. Exposed so tests (and operators embedding the
// manager) can force a sweep; the background sweeper calls it on its
// interval.
func (m *Manager) Sweep(now time.Time) int {
	if m.cfg.Retention <= 0 {
		return 0
	}
	cutoff := now.Add(-m.cfg.Retention)
	m.mu.Lock()
	var evictedIDs []string
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if j != nil && j.expired(cutoff) {
			delete(m.jobs, id)
			evictedIDs = append(evictedIDs, id)
			continue
		}
		kept = append(kept, id)
	}
	// Re-slice so the order slice's tail does not pin evicted id strings.
	for i := len(kept); i < len(m.order); i++ {
		m.order[i] = ""
	}
	m.order = kept
	m.mu.Unlock()
	if len(evictedIDs) > 0 {
		m.met.jobsEvicted.Add(int64(len(evictedIDs)))
		// Journal outside m.mu: swept records must not resurrect at boot.
		m.journalEvicted(evictedIDs)
	}
	return len(evictedIDs)
}

// Metrics returns the manager's metric registry (for the /metrics endpoint).
func (m *Manager) Metrics() *Metrics { return m.met }

// Engine returns the engine the manager schedules over (nil when its jobs
// run remotely).
func (m *Manager) Engine() *Engine { return m.eng }

// Config returns the effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// NormEnv returns the normalization environment this manager admits specs
// under. The cluster coordinator mirrors it fleet-side so coordinator and
// worker compute identical digests.
func (m *Manager) NormEnv() NormEnv {
	env, _ := m.run.Env()
	return env
}

// ResultCacheStats returns a snapshot of the job result cache's meters
// (Enabled false, all zeros, when the cache is disabled).
func (m *Manager) ResultCacheStats() ResultCacheStats {
	if m.results == nil {
		return ResultCacheStats{}
	}
	return m.results.Stats()
}

// Draining reports whether Close has begun: the manager no longer accepts
// jobs and is cancelling in-flight work. Surfaced by /readyz.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Submit admits a job. Admission consults the result cache first: a digest
// already memoized is served as an instantly-terminal job — zero walk
// steps, zero charges, no queue slot, no estimation workers — so repeat
// submissions are immune to overload shedding. Otherwise the runner places
// and starts the job, and a full queue fails fast with ErrQueueFull, never
// blocking the caller.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	return m.submit(context.Background(), spec)
}

func (m *Manager) submit(ctx context.Context, spec JobSpec) (*Job, error) {
	if m.Draining() {
		m.met.jobsShed.Add(1)
		return nil, ErrClosed
	}
	if env, ok := m.run.Env(); ok && m.results != nil {
		if norm, err := NormalizeSpec(spec, env); err == nil {
			digest := SpecDigest(env, norm)
			if rows, cres, ok := m.results.Get(digest); ok {
				return m.admitCached(norm, digest, rows, cres)
			}
		}
	}
	pl, err := m.run.Place(ctx, spec)
	if err != nil {
		var ref *Refusal
		if errors.As(err, &ref) && ref.Code == 503 {
			m.met.jobsShed.Add(1)
		} else {
			m.met.jobsRejected.Add(1)
		}
		return nil, err
	}
	// The closed check, the runner's non-blocking start, and the
	// registration form one critical section: Close sets closed under the
	// same lock before it stops the runner (so a start never races a
	// stopped runner, and a placement that took a while is refused if
	// Close ran meanwhile), and a job is registered if and only if its
	// start succeeded.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.met.jobsShed.Add(1)
		return nil, ErrClosed
	}
	job := m.newJobLocked(pl.Spec, pl.Digest, time.Now())
	job.runState = pl.State
	if err := m.run.Start(job); err != nil {
		m.mu.Unlock()
		m.met.jobsRejected.Add(1)
		m.met.jobsShed.Add(1)
		return nil, err
	}
	m.registerLocked(job)
	m.mu.Unlock()
	m.admitted(job, "accepted")
	return job, nil
}

// newJobLocked builds the next-numbered job. m.mu held.
func (m *Manager) newJobLocked(spec JobSpec, digest string, now time.Time) *Job {
	m.seq++
	job := newJob(m, fmt.Sprintf("job-%06d", m.seq), spec, now)
	job.seq = m.seq
	job.digest = digest
	if m.journal() != nil {
		job.journaled = make(chan struct{})
	}
	return job
}

func (m *Manager) registerLocked(j *Job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
}

// admitted makes a registered job's admission durable and counts it. The
// accepted record is appended outside m.mu (the journal may rotate, and
// rotation snapshots through m.mu); the runner and any canceller wait on
// job.journaled, so admission is always the job's first durable record.
func (m *Manager) admitted(j *Job, how string) {
	if j.journaled != nil {
		m.journalAccepted(j)
		close(j.journaled)
	}
	m.met.jobsSubmitted.Add(1)
	if m.cfg.Logf != nil {
		m.cfg.Logf("job %s %s digest=%s", j.id, how, j.digest)
	}
}

// admitCached serves a repeat submission from the result cache: the job is
// registered already terminal, its rows the original run's rows verbatim
// (identical i/node/steps/cost sequence) and its result a fresh summary
// charging zero queries. It never reaches the runner — the only admission
// gate that still applies is Close.
func (m *Manager) admitCached(spec JobSpec, digest string, rows []Sample, cres *JobResult) (*Job, error) {
	fleet := m.run.FleetQueries()
	now := time.Now()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.met.jobsShed.Add(1)
		return nil, ErrClosed
	}
	job := m.newJobLocked(spec, digest, now)
	job.state = JobDone
	job.started = now
	job.finished = now
	job.samples = rows
	job.result = &JobResult{
		Samples:        cres.Samples,
		Queries:        0,
		FleetQueries:   fleet,
		AcceptanceRate: cres.AcceptanceRate,
		Estimate:       cres.Estimate,
		Nodes:          cres.Nodes,
		Cached:         true,
	}
	m.registerLocked(job)
	m.mu.Unlock()
	m.admitted(job, "served from result cache")
	m.met.jobsDone.Add(1)
	// The hit is journaled as a self-contained terminal record, so it
	// survives restart exactly like a live run's record.
	m.journalTerminal(job)
	return job, nil
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all known jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	return jobs
}

// List returns snapshots of all known jobs in submission order.
func (m *Manager) List() []JobStatus {
	jobs := m.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// RetainedJobs returns the number of job records currently held — queued,
// running, and terminal records the retention sweeper has not yet evicted.
func (m *Manager) RetainedJobs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// Cancel cancels the job with the given id; it reports whether the id was
// known.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if ok {
		m.cancel(j)
	}
	return ok
}

// cancel finalizes a still-queued job here (no runner has it yet) and asks
// the runner to stop a running one.
func (m *Manager) cancel(j *Job) {
	if m.terminate(j, true, JobCancelled, context.Canceled.Error(), "", nil) {
		j.cancel(nil)
		return
	}
	if j.Status().State == JobRunning {
		m.run.Cancel(j)
	}
}

// terminate moves j to a terminal state exactly once and reports whether
// this call did; with queuedOnly it acts only on a job still queued. It
// counts the outcome, memoizes a clean completion, and journals the
// terminal record.
func (m *Manager) terminate(j *Job, queuedOnly bool, state JobState, errMsg, reason string, result *JobResult) bool {
	j.mu.Lock()
	if j.state.Terminal() || (queuedOnly && j.state != JobQueued) {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.reason = reason
	j.result = result
	j.finished = time.Now()
	run := j.finished.Sub(j.started)
	started := !j.started.IsZero()
	rows := j.samples
	j.cond.Broadcast()
	j.mu.Unlock()
	switch state {
	case JobDone:
		m.met.jobsDone.Add(1)
		if m.results != nil && j.digest != "" {
			// Put drops partial results itself. The rows slice is terminal
			// and append-only — safe to share with every future hit.
			m.results.Put(j.digest, rows, result)
		}
	case JobCancelled:
		m.met.jobsCancelled.Add(1)
	default:
		m.met.jobsFailed.Add(1)
	}
	if started {
		m.met.jobsInFlight.Add(-1)
		m.met.runDur.Observe(run)
	}
	m.noteTerminal(j)
	return true
}

// Close stops accepting jobs, has the runner stop everything in flight,
// and waits for it. A daemon's runner cancels its jobs (journaled as
// cancelled); a coordinator's abandons them (nothing journaled, so a
// restart re-dispatches).
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.drained
		return
	}
	m.closed = true
	close(m.stopSweep)
	m.mu.Unlock()
	m.sweepWG.Wait()
	m.run.Close()
	for _, j := range m.Jobs() {
		j.abandon()
	}
	// Every terminal record is appended by now; a graceful drain leaves the
	// journal flushed and fsynced, so the next boot recovers exactly the
	// drained state.
	if jl := m.jl.Swap(nil); jl != nil {
		jl.Close()
	}
	close(m.drained)
}

// trimID strips an optional "/stream" suffix and leading/trailing slashes
// from a /v1/jobs/ subpath, returning (id, stream).
func trimID(rest string) (string, bool) {
	rest = strings.Trim(rest, "/")
	if s, ok := strings.CutSuffix(rest, "/stream"); ok {
		return s, true
	}
	return rest, false
}
