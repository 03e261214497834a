package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// JobStatus is the coordinator's job snapshot: the single-daemon status plus
// fleet placement. The embedded fields marshal flat, so clients written for
// a plain weserve parse it unchanged.
type JobStatus struct {
	serve.JobStatus
	// Worker is the fleet index of the worker currently (or last) running
	// the job (-1 while awaiting placement).
	Worker int `json:"worker"`
	// Attempts counts dispatches: 1 for an undisturbed job, +1 per hand-off.
	Attempts int `json:"attempts"`
}

// fleetRunner is the coordinator's serve.Runner. The coordinator's
// serve.Manager owns the jobs; this runner places each one on a live
// worker, relays the worker's sample stream into it, and hands it to
// another worker when its worker is lost. serve.Job.Publish drops rows
// already in the log, so a hand-off re-run (which replays the deterministic
// sequence from row 0) extends the stream exactly where the lost worker
// stopped.
type fleetRunner struct{ co *Coordinator }

func (r fleetRunner) Env() (serve.NormEnv, bool) {
	if env := r.co.normEnv.Load(); env != nil {
		return *env, true
	}
	return serve.NormEnv{}, false
}

func (r fleetRunner) FleetQueries() int64 { return r.co.FleetQueries() }

func (r fleetRunner) Place(ctx context.Context, spec serve.JobSpec) (serve.Placement, error) {
	return r.co.place(ctx, spec)
}

func (r fleetRunner) Start(j *serve.Job) error {
	r.co.startRelay(j)
	return nil
}

func (r fleetRunner) Resume(jobs []*serve.Job) {
	for _, j := range jobs {
		j.SetRunState(&remoteJob{})
		r.co.startRelay(j)
	}
}

func (r fleetRunner) Cancel(j *serve.Job) { r.co.cancelJob(j) }

// Close stops every relay without finishing its job: the jobs are
// abandoned, their journals stay non-terminal, and a restarted coordinator
// re-dispatches them. Worker processes are not touched.
func (r fleetRunner) Close() {
	r.co.stop()
	r.co.wg.Wait()
}

// remoteJob is the fleet runner's state for one job (serve.Job.RunState).
type remoteJob struct {
	mu        sync.Mutex
	pl        *placement         // current (or last) placement; nil before the first
	attempts  int                // dispatches so far
	cancelled bool               // the client asked to cancel
	stop      context.CancelFunc // stops the relay
}

func remoteOf(j *serve.Job) *remoteJob {
	rj, _ := j.RunState().(*remoteJob)
	return rj
}

// status renders a coordinator job: result-cache hits and jobs rehydrated
// from the journal were never placed (worker -1, attempts 0).
func (co *Coordinator) status(j *serve.Job) JobStatus {
	st := JobStatus{JobStatus: j.Status(), Worker: -1}
	if rj := remoteOf(j); rj != nil {
		rj.mu.Lock()
		if rj.pl != nil {
			st.Worker = rj.pl.idx
		}
		st.Attempts = rj.attempts
		rj.mu.Unlock()
	}
	return st
}

// placement is a successful dispatch: where the job landed and the worker's
// accepted status (normalized spec + remote id).
type placement struct {
	idx    int
	gen    int64
	addr   string
	status serve.JobStatus
}

// place dispatches a fresh submission. Every worker shedding relays the
// last worker's 503 as it stands (counted as forwarded); no live worker at
// all sheds with the coordinator's own no_workers reason.
func (co *Coordinator) place(ctx context.Context, spec serve.JobSpec) (serve.Placement, error) {
	pl, ref := co.dispatchOnce(ctx, spec)
	switch {
	case pl != nil:
		return serve.Placement{Spec: pl.status.Spec, Digest: pl.status.Digest,
			State: &remoteJob{pl: pl, attempts: 1}}, nil
	case ref == nil:
		return serve.Placement{}, serve.Shed(ShedNoWorkers)
	case ref.Code == http.StatusServiceUnavailable:
		co.shedForwarded.Add(1)
	}
	return serve.Placement{}, ref
}

// dispatchOnce tries each live worker once (round-robin from the cursor).
// Outcomes: a placement; a response to relay verbatim (every worker shed →
// the last 503, or a 4xx rejection → immediately, since validation is
// deterministic across workers); or (nil, nil) — no live worker answered.
func (co *Coordinator) dispatchOnce(ctx context.Context, spec serve.JobSpec) (*placement, *serve.Refusal) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, &serve.Refusal{Code: http.StatusBadRequest,
			Body: []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))}
	}
	tried := make(map[int]bool)
	var lastShed *serve.Refusal
	for {
		idx, addr, gen, ok := co.pickWorker(tried)
		if !ok {
			return nil, lastShed
		}
		tried[idx] = true
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, lastShed
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := co.hc.Do(req)
		if err != nil {
			co.markDead(idx, gen)
			continue
		}
		respBody := readBody(resp.Body)
		resp.Body.Close()
		ref := &serve.Refusal{Code: resp.StatusCode,
			RetryAfter: resp.Header.Get("Retry-After"), Body: respBody}
		switch {
		case resp.StatusCode == http.StatusAccepted:
			var st serve.JobStatus
			if json.Unmarshal(respBody, &st) != nil || st.ID == "" {
				co.markDead(idx, gen)
				continue
			}
			return &placement{idx: idx, gen: gen, addr: addr, status: st}, nil
		case resp.StatusCode == http.StatusServiceUnavailable:
			// Worker-side shed (queue_full / draining): hold it for verbatim
			// relay — the typed reason and Retry-After must reach the client
			// unchanged, with no coordinator shed layered on top.
			lastShed = ref
		default:
			return nil, ref
		}
	}
}

// startRelay starts the job's relay. It runs in the manager's admission
// critical section (or at boot recovery), so Close always waits for it.
func (co *Coordinator) startRelay(j *serve.Job) {
	rj := remoteOf(j)
	ctx, stop := context.WithCancel(co.ctx)
	rj.mu.Lock()
	rj.stop = stop
	pl := rj.pl
	rj.mu.Unlock()
	j.Begin()
	co.wg.Add(1)
	go co.relay(ctx, j, rj, pl)
}

// cancelJob forwards the client's cancel to the placed worker (the relay
// then observes the worker's cancelled terminal) and stops the relay
// directly when there is no reachable placement to forward to.
func (co *Coordinator) cancelJob(j *serve.Job) {
	rj := remoteOf(j)
	rj.mu.Lock()
	rj.cancelled = true
	pl, stop := rj.pl, rj.stop
	rj.mu.Unlock()
	if pl != nil {
		req, err := http.NewRequest(http.MethodDelete, pl.addr+"/v1/jobs/"+pl.status.ID, nil)
		if err == nil {
			if resp, err := co.hc.Do(req); err == nil {
				resp.Body.Close()
				return
			}
		}
	}
	stop()
}

// stopped settles a job whose relay context ended: a client cancel
// finishes it cancelled; a coordinator Close abandons it unfinished.
func (co *Coordinator) stopped(j *serve.Job, rj *remoteJob) {
	rj.mu.Lock()
	cancelled := rj.cancelled
	rj.mu.Unlock()
	if cancelled {
		j.Finish(serve.JobCancelled, "cancelled by client", "", nil)
	}
}

// streamLine is one decoded NDJSON line from a worker stream: either a
// sample row or the terminal marker.
type streamLine struct {
	Done  bool  `json:"done"`
	Index *int  `json:"i"`
	Node  int   `json:"node"`
	Steps int   `json:"steps"`
	Cost  int64 `json:"cost"`
}

// relay follows the job's sample stream on its placed worker, publishing
// rows into the job. When the stream dies before a terminal line — worker
// crash, network loss, or a worker restart that forgot the job — it hands
// the job off: re-dispatch the normalized spec to another live worker and
// keep relaying. A resumed job starts unplaced (pl nil). Attempts are
// capped; past the cap the job fails with reason "worker_lost".
func (co *Coordinator) relay(ctx context.Context, j *serve.Job, rj *remoteJob, pl *placement) {
	defer co.wg.Done()
	defer rj.stop()
	for {
		if pl == nil {
			if pl = co.redispatch(ctx, j, rj); pl == nil {
				return // redispatch settled the job
			}
		}
		if co.relayOnce(ctx, j, pl) {
			return
		}
		if ctx.Err() != nil {
			co.stopped(j, rj)
			return
		}
		co.markDead(pl.idx, pl.gen)
		rj.mu.Lock()
		rj.attempts++
		attempts := rj.attempts
		rj.mu.Unlock()
		if attempts > co.cfg.MaxAttempts {
			j.Finish(serve.JobFailed,
				fmt.Sprintf("lost %d workers running this job", attempts-1),
				ReasonWorkerLost, nil)
			return
		}
		co.handoffs.Add(1)
		pl = nil
	}
}

// relayOnce streams the job once from its current placement. It returns
// true when the job reached a terminal state (job finished), false when
// the stream died first (caller hands off).
func (co *Coordinator) relayOnce(ctx context.Context, j *serve.Job, pl *placement) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		pl.addr+"/v1/jobs/"+pl.status.ID+"/stream", nil)
	if err != nil {
		return false
	}
	resp, err := co.sc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var line streamLine
		if err := dec.Decode(&line); err != nil {
			return false // stream died before the terminal line
		}
		if line.Done {
			return co.finishFromWorker(ctx, j, pl)
		}
		if line.Index != nil {
			j.Publish(serve.Sample{Index: *line.Index, Node: line.Node, Steps: line.Steps, Cost: line.Cost})
		}
	}
}

// finishFromWorker pulls the terminal status (with its result summary) from
// the worker and finishes the job with it. A worker that claims done on the
// stream but cannot produce a terminal status is treated as lost.
func (co *Coordinator) finishFromWorker(ctx context.Context, j *serve.Job, pl *placement) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		pl.addr+"/v1/jobs/"+pl.status.ID, nil)
	if err != nil {
		return false
	}
	resp, err := co.hc.Do(req)
	if err != nil {
		return false
	}
	body := readBody(resp.Body)
	resp.Body.Close()
	var st serve.JobStatus
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &st) != nil || !st.State.Terminal() {
		return false
	}
	j.Finish(st.State, st.Error, st.FailureReason, st.Result)
	return true
}

// redispatch places the job on a live worker after a loss (or at resume),
// retrying through sheds and worker gaps for up to redispatchWindow. A 4xx
// relay is impossible here (the spec was already accepted once), so a
// forwarded rejection fails the job.
const redispatchWindow = 30 * time.Second

func (co *Coordinator) redispatch(ctx context.Context, j *serve.Job, rj *remoteJob) *placement {
	deadline := time.Now().Add(redispatchWindow)
	for {
		if ctx.Err() != nil {
			co.stopped(j, rj)
			return nil
		}
		pl, ref := co.dispatchOnce(ctx, j.Spec())
		if pl != nil {
			rj.mu.Lock()
			rj.pl = pl
			if rj.attempts == 0 {
				rj.attempts = 1
			}
			rj.mu.Unlock()
			return pl
		}
		if ref != nil && ref.Code != http.StatusServiceUnavailable {
			j.Finish(serve.JobFailed,
				fmt.Sprintf("re-dispatch rejected: %s", string(ref.Body)),
				ReasonWorkerLost, nil)
			return nil
		}
		if time.Now().After(deadline) {
			j.Finish(serve.JobFailed,
				fmt.Sprintf("no worker accepted the job within %s of losing its worker", redispatchWindow),
				ReasonWorkerLost, nil)
			return nil
		}
		select {
		case <-ctx.Done():
		case <-time.After(100 * time.Millisecond):
		}
	}
}
