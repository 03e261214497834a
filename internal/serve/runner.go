package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/fastrand"
	"repro/internal/osn"
	"repro/internal/walk"
)

// Runner executes the jobs a Manager admits. The Manager owns everything
// else about a job — the table and ids, result-cache admission, the journal,
// retention, counters, and the HTTP routes — so both contracts a job must
// honour (a fixed sample stream per normalized spec, exact unique-node
// charging) are kept in one place whoever runs it. A runner reports back
// through the job: Begin, Publish, and Finish.
//
// A daemon runs jobs in process (NewManager's local runner); a fleet
// coordinator places them on remote workers (NewManagerWith).
type Runner interface {
	// Env returns the environment admission normalizes specs under for the
	// result-cache lookup; ok is false while it is unknown, and admission
	// then goes straight to Place.
	Env() (env NormEnv, ok bool)
	// FleetQueries returns the fleet-wide unique-node charge, reported in
	// the summaries of result-cache hits.
	FleetQueries() int64
	// Place readies a submission for execution, outside the Manager's lock
	// (it may block on a remote call). It returns the normalized spec and
	// digest the job runs under, or refuses the submission: a validation
	// error, or a *Refusal relayed to the client as it stands.
	Place(ctx context.Context, spec JobSpec) (Placement, error)
	// Start hands over a job that is being registered. It runs inside the
	// Manager's admission critical section, after the closed check, and
	// must not block; an error (ErrQueueFull) refuses the job.
	Start(j *Job) error
	// Resume hands over the incomplete jobs recovered from the journal, in
	// submission order. It must not block.
	Resume(jobs []*Job)
	// Cancel asks a started job to stop; the runner then finishes it as
	// cancelled. Jobs still queued are finalized by the Manager itself.
	Cancel(j *Job)
	// Close stops every execution and waits for it to return; the Manager
	// calls it once, after it stopped admitting. A job the runner leaves
	// unfinished is abandoned: the Manager journals no terminal record for
	// it, so the next boot resumes it.
	Close()
}

// Placement is a placed submission: the normalized spec and digest the job
// runs under, and the runner's own per-job state (see Job.RunState).
type Placement struct {
	Spec   JobSpec
	Digest string
	State  any
}

// localRunner runs jobs on the manager's engine: a bounded queue drained by
// cfg.Runners goroutines, each job carving its normalized Workers slots out
// of a global estimation-worker budget for its whole run.
type localRunner struct {
	m     *Manager
	eng   *Engine
	env   NormEnv
	queue chan *Job

	mu   sync.Mutex
	cond sync.Cond // worker-slot availability
	free int       // estimation-worker slots currently free

	stop  chan struct{} // closed by Close: the resume enqueuer gives up
	recWG sync.WaitGroup
	wg    sync.WaitGroup
}

func newLocalRunner(m *Manager, eng *Engine, cfg Config) *localRunner {
	r := &localRunner{
		m:     m,
		eng:   eng,
		queue: make(chan *Job, cfg.QueueDepth),
		free:  cfg.WorkerBudget,
		stop:  make(chan struct{}),
		env: NormEnv{
			GraphID:          eng.GraphID(),
			NumNodes:         eng.NumNodes(),
			DefaultStart:     eng.defaultStart,
			DefaultWalkLen:   eng.defaultWalkLen,
			MaxWorkersPerJob: cfg.MaxWorkersPerJob,
		},
	}
	r.cond.L = &r.mu
	for i := 0; i < cfg.Runners; i++ {
		r.wg.Add(1)
		go r.loop()
	}
	return r
}

func (r *localRunner) Env() (NormEnv, bool) { return r.env, true }

func (r *localRunner) FleetQueries() int64 { return r.eng.CacheStats().Queries }

func (r *localRunner) Place(_ context.Context, spec JobSpec) (Placement, error) {
	spec, err := NormalizeSpec(spec, r.env)
	if err != nil {
		return Placement{}, err
	}
	return Placement{Spec: spec, Digest: SpecDigest(r.env, spec)}, nil
}

// Start enqueues without blocking: a full queue sheds the job. Close closes
// the queue only after the Manager stopped admitting, so this send never
// races a closed channel.
func (r *localRunner) Start(j *Job) error {
	select {
	case r.queue <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// Resume enqueues asynchronously: the resumed backlog may exceed the queue
// depth, and blocking boot on runner drain would deadlock it.
func (r *localRunner) Resume(jobs []*Job) {
	r.recWG.Add(1)
	go func() {
		defer r.recWG.Done()
		for _, j := range jobs {
			select {
			case r.queue <- j:
			case <-r.stop:
				// Shutdown mid-recovery: Close cancels the registered jobs;
				// their cancelled terminals are journaled there.
				return
			}
		}
	}()
}

// Cancel cancels the job's context: its workers abandon in-flight work
// within one batch (see core.SampleNParallelCtx) and run returns.
func (r *localRunner) Cancel(j *Job) { j.cancel(nil) }

// Close cancels every job — a daemon's drain journals them cancelled — and
// waits for the runner goroutines.
func (r *localRunner) Close() {
	close(r.stop)
	r.recWG.Wait() // the resume enqueuer must stop before the queue closes
	for _, j := range r.m.Jobs() {
		r.m.cancel(j)
	}
	close(r.queue)
	r.wg.Wait()
}

// acquire blocks until n estimation-worker slots are free and takes them.
// n is clamped to WorkerBudget at normalization, so acquisition always
// eventually succeeds.
func (r *localRunner) acquire(n int) {
	r.mu.Lock()
	for r.free < n {
		r.cond.Wait()
	}
	r.free -= n
	r.mu.Unlock()
}

func (r *localRunner) release(n int) {
	r.mu.Lock()
	r.free += n
	r.cond.Broadcast()
	r.mu.Unlock()
}

// loop is one of cfg.Runners job loops: pop, carve workers from the global
// budget, run, release.
func (r *localRunner) loop() {
	defer r.wg.Done()
	for job := range r.queue {
		// A journaled job must not run (and so must not append progress)
		// before its accepted record is durable.
		job.waitJournaled()
		if !job.Begin() { // cancelled while queued
			continue
		}
		workers := job.spec.Workers
		r.acquire(workers)
		result, err := r.run(job)
		r.release(workers)
		job.finish(result, err)
	}
}

// run executes one job on the calling goroutine. On failure it returns the
// samples produced so far as a partial result alongside the error, so
// degradation is graceful: a backend outage or deadline overrun voids only
// the remainder of the job, never the work already streamed.
func (r *localRunner) run(job *Job) (*JobResult, error) {
	spec := job.spec
	d, err := walk.ByName(spec.Design)
	if err != nil {
		return nil, err
	}
	// The run context layers, derived from the job's cancellable context:
	// an optional per-job deadline, and the failure-cancel hook that lets
	// the resilience middleware cancel this job with a typed
	// BackendUnavailableError when its retry policy gives up. Both causes
	// surface through context.Cause and are classified by finish.
	runCtx := job.ctx
	if spec.DeadlineMS > 0 {
		var cancelDL context.CancelFunc
		runCtx, cancelDL = context.WithTimeout(runCtx, time.Duration(spec.DeadlineMS)*time.Millisecond)
		defer cancelDL()
	}
	runCtx = osn.WithFailureCancel(runCtx, job.cancel)
	rng := fastrand.New(spec.Seed)
	c := r.eng.NewClientCtx(runCtx, rng)
	fleetBefore := c.TotalQueries()

	switch spec.Type {
	case TypeWalkPath:
		// One plain forward walk, streamed node by node, with a
		// cancellation check per step.
		u := *spec.Start
		for i := 1; i <= spec.Count; i++ {
			if runCtx.Err() != nil {
				return &JobResult{
					Samples:      i - 1,
					Queries:      c.TotalQueries() - fleetBefore,
					FleetQueries: c.TotalQueries(),
				}, context.Cause(runCtx)
			}
			u = d.Step(c, u, rng)
			job.Publish(Sample{Index: i - 1, Node: u, Steps: i, Cost: c.TotalQueries()})
		}
		return &JobResult{
			Samples:      spec.Count,
			Queries:      c.TotalQueries() - fleetBefore,
			FleetQueries: c.TotalQueries(),
		}, nil

	case TypeSample, TypeEstimateMean:
		cfg := core.Config{
			Design:         d,
			Start:          *spec.Start,
			WalkLength:     spec.WalkLength,
			UseWeighted:    !spec.NoWeighted,
			BackwardReps:   spec.BackwardReps,
			VarianceBudget: spec.VarianceBudget,
			// Allocate WS-BW history pages from the engine's shared pool
			// and release them when this job is done (the deferred
			// ReleasePages below), so per-job history churn is bounded by
			// the job's visited mass instead of regrown from zero.
			Pages: r.eng.pages,
		}
		if !spec.NoCrawl {
			// Reuse (or build-and-memoize) the crawl table instead of
			// letting the sampler crawl per job.
			ct, err := r.eng.crawlTable(runCtx, c, d, *spec.Start, spec.CrawlHops)
			if err != nil {
				return nil, primaryCause(runCtx, err)
			}
			cfg.Crawl = ct
		}
		s, err := core.NewSampler(c, cfg, rng)
		if err != nil {
			return nil, err
		}
		// Safe on every path out of run: SampleN*Ctx quiesce their workers
		// before returning, so nothing can still read the pages.
		defer s.ReleasePages()
		s.OnSample = func(ev core.SampleEvent) {
			job.Publish(Sample{Index: ev.Index, Node: ev.Node, Steps: ev.Steps, Cost: ev.CostAfter})
		}
		var res walk.Result
		if spec.Workers > 1 {
			res, err = s.SampleNParallelCtx(runCtx, spec.Count, spec.Workers)
		} else {
			res, err = s.SampleNCtx(runCtx, spec.Count)
		}
		out := &JobResult{
			Samples:        res.Len(),
			Queries:        c.TotalQueries() - fleetBefore,
			FleetQueries:   c.TotalQueries(),
			AcceptanceRate: s.AcceptanceRate(),
			Nodes:          res.Nodes,
		}
		if err != nil {
			// The samplers return the in-order prefix drawn before the
			// error; keep it as the partial result.
			return out, primaryCause(runCtx, err)
		}
		if spec.Type == TypeEstimateMean {
			if runCtx.Err() != nil {
				return out, context.Cause(runCtx)
			}
			est, err := agg.EstimateMean(c, d, spec.Attr, res.Nodes)
			if err != nil {
				return out, primaryCause(runCtx, err)
			}
			out.Estimate = &est
			out.Queries = c.TotalQueries() - fleetBefore
			out.FleetQueries = c.TotalQueries()
		}
		return out, nil
	}
	return nil, fmt.Errorf("serve: unknown job type %q", spec.Type)
}

// primaryCause resolves which error really failed the run: when the run
// context was cancelled, its cause (the typed backend failure, the deadline,
// or the user's cancel) is the primary failure and err is downstream fallout
// — a backend giving up mid-access degrades that access to an empty answer,
// and whatever the sampler tripped over next (an impossible walk state, a
// missing attribute) is a symptom, not the cause.
func primaryCause(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
	}
	return err
}
