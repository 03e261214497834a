package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/osn"
)

// Handler returns a daemon's HTTP API over a manager built by NewManager:
//
//	POST   /v1/jobs            submit a JobSpec, returns the job status (202)
//	GET    /v1/jobs            list all jobs
//	GET    /v1/jobs/{id}        job status (result attached once done)
//	GET    /v1/jobs/{id}/stream NDJSON: accepted samples as they are
//	                            produced, then one terminal status line
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz             liveness + engine summary (alias of /livez)
//	GET    /livez               liveness: 200 while the process serves HTTP
//	GET    /readyz              readiness: 503 while draining or while the
//	                            backend circuit breaker is open
//	GET    /metrics             Prometheus text exposition
//
// Liveness and readiness are split so orchestrators can tell "restart me"
// from "stop routing to me": a draining daemon and one whose resilience
// middleware has opened the breaker (backend outage) are alive but not
// ready — they finish or fail in-flight work and recover without a restart.
//
// Routing is hand-rolled on path prefixes so it behaves identically across
// Go versions (no dependence on 1.22 ServeMux patterns).
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	live := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"ok":            true,
			"uptime_s":      m.met.Uptime().Seconds(),
			"graph_nodes":   m.eng.NumNodes(),
			"graph_id":      m.eng.GraphID(),
			"jobs_inflight": m.met.jobsInFlight.Load(),
			"samples":       m.met.Samples(),
			"jobs_cache":    m.ResultCacheStats(),
		})
	}
	mux.HandleFunc("/healthz", live)
	mux.HandleFunc("/livez", live)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		draining := m.Draining()
		recovering := m.Recovering()
		breaker := ""
		breakerOpen := false
		if res := m.eng.Resilient(); res != nil {
			st := res.BreakerState()
			breaker = st.String()
			breakerOpen = st == osn.BreakerOpen
		}
		code := http.StatusOK
		if draining || breakerOpen || recovering {
			code = http.StatusServiceUnavailable
		}
		body := map[string]any{
			"ready":      code == http.StatusOK,
			"draining":   draining,
			"recovering": recovering,
		}
		if breaker != "" {
			body["breaker"] = breaker
		}
		writeJSON(w, code, body)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.WriteProm(w)
	})
	jobs := JobHandler(m, func(j *Job) any { return j.Status() })
	mux.Handle("/v1/jobs", jobs)
	mux.Handle("/v1/jobs/", jobs)
	return mux
}

// JobHandler serves the job API over the manager — submit, list, status,
// NDJSON stream, and cancel under /v1/jobs — rendering each job's status
// JSON with view (a daemon's is Job.Status; a coordinator adds placement).
func JobHandler(m *Manager, view func(*Job) any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs" {
			switch r.Method {
			case http.MethodPost:
				submit(m, view, w, r)
			case http.MethodGet:
				jobs := m.Jobs()
				out := make([]any, len(jobs))
				for i, j := range jobs {
					out[i] = view(j)
				}
				writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
			default:
				httpError(w, http.StatusMethodNotAllowed, "use POST to submit or GET to list")
			}
			return
		}
		id, stream := trimID(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"))
		job, ok := m.Get(id)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
			return
		}
		switch {
		case stream && r.Method == http.MethodGet:
			streamJob(w, r, job)
		case r.Method == http.MethodGet:
			writeJSON(w, http.StatusOK, view(job))
		case r.Method == http.MethodDelete:
			m.Cancel(id)
			writeJSON(w, http.StatusOK, view(job))
		default:
			httpError(w, http.StatusMethodNotAllowed, "use GET for status/stream or DELETE to cancel")
		}
	})
}

func submit(m *Manager, view func(*Job) any, w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	job, err := m.submit(r.Context(), spec)
	var ref *Refusal
	switch {
	case errors.Is(err, ErrQueueFull):
		Shed("queue_full").write(w)
	case errors.Is(err, ErrClosed):
		Shed("draining").write(w)
	case errors.As(err, &ref):
		ref.write(w)
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusAccepted, view(job))
	}
}

// Refusal is a refused submission with its HTTP answer ready-made; the job
// routes write it as it stands. A coordinator relays a worker's shed or
// rejection this way, so the client sees the worker's reason, Retry-After
// and body exactly once.
type Refusal struct {
	Code       int
	RetryAfter string
	Body       []byte
}

func (f *Refusal) Error() string {
	return fmt.Sprintf("serve: submission refused (%d): %s", f.Code, bytes.TrimSpace(f.Body))
}

func (f *Refusal) write(w http.ResponseWriter) {
	if f.RetryAfter != "" {
		w.Header().Set("Retry-After", f.RetryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(f.Code)
	w.Write(f.Body)
}

// shedRetryAfter is the backoff hint attached to load-shedding 503s. One
// second clears a full queue at any realistic drain rate without turning
// well-behaved clients into a thundering herd.
const shedRetryAfter = time.Second

// Shed is the typed 503 answering an overloaded (or draining) submission,
// with a machine-readable retry hint in both the Retry-After header (whole
// seconds) and the JSON body (milliseconds, for sub-second policies).
func Shed(reason string) *Refusal {
	secs := int(shedRetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	body, _ := json.MarshalIndent(map[string]any{
		"error":          reason,
		"retry_after_ms": shedRetryAfter.Milliseconds(),
	}, "", "  ")
	return &Refusal{Code: http.StatusServiceUnavailable, RetryAfter: strconv.Itoa(secs),
		Body: append(body, '\n')}
}

// streamJob serves NDJSON: one line per accepted sample, as it is produced,
// and one final terminal-status line. Streaming attaches at any time — lines
// already produced are replayed first, so a replay of a finished job is the
// full sequence.
func streamJob(w http.ResponseWriter, r *http.Request, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// A disconnecting client must wake the cond-wait below, or the handler
	// goroutine would linger until the job's next publish.
	stop := context.AfterFunc(r.Context(), job.wake)
	defer stop()

	from := 0
	for {
		batch, terminal := job.waitSamples(r.Context(), from)
		for i := range batch {
			if err := enc.Encode(&batch[i]); err != nil {
				return
			}
		}
		from += len(batch)
		if fl != nil {
			fl.Flush()
		}
		if r.Context().Err() != nil {
			return
		}
		if terminal && len(batch) == 0 {
			st := job.Status()
			line := map[string]any{
				"done":    true,
				"state":   st.State,
				"samples": st.Samples,
				"error":   st.Error,
			}
			if st.FailureReason != "" {
				line["failure_reason"] = st.FailureReason
			}
			if st.Result != nil && st.Result.Cached {
				line["cached"] = true
			}
			enc.Encode(line)
			if fl != nil {
				fl.Flush()
			}
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg})
}
