package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/osn"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one job share job; parent links are resolved after
// the run from the per-workload nesting table, because the calls that open
// a span (an HTTP handler on a worker, say) cannot see the caller's span.
type span struct {
	name  string // layer boundary, e.g. "serve.http.stream"
	layer string // module the time belongs to: bench, serve, cluster, core, osn
	job   string // shared by one job's spans ("" for spans outside any job)
	start int64  // ns since the tracer's epoch
	end   int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	// on gates recording to the measured phase: set-up (its warm-up jobs
	// included) is not traced.
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	// credits move aggregate time between layers where the calls are too
	// many to span one by one (backend calls) or cannot be attributed to a
	// job (shard-resolve RPCs): credits[from][to] ns.
	credits map[string]map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), credits: map[string]map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin starts recording; no-op on nil.
func (t *tracer) begin() {
	if t != nil {
		t.on.Store(true)
	}
}

// record stores a finished span. Safe for concurrent use; no-op on nil and
// before begin.
func (t *tracer) record(name, layer, job string, start, end int64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, layer: layer, job: job, start: start, end: end})
	t.mu.Unlock()
}

// credit moves ns of self time from layer from to layer to.
func (t *tracer) credit(from, to string, ns int64) {
	if t == nil || ns == 0 {
		return
	}
	t.mu.Lock()
	if t.credits[from] == nil {
		t.credits[from] = map[string]int64{}
	}
	t.credits[from][to] += ns
	t.mu.Unlock()
}

// selfTimes links the spans into trees with nesting (child name -> parent
// name, within one job; a name absent from nesting is a root) and returns
// per-layer self time plus the summed wall time of the roots. A span's self
// time is its duration minus the union of its children's intervals (clipped
// to it), so concurrent, overlapping children are subtracted once. When the
// spans nest cleanly the self times add up to the roots' wall time.
func selfTimes(spans []span, nesting map[string]string, credits map[string]map[string]int64) (self map[string]int64, rootWall int64) {
	byJob := map[string][]int{}
	for i, s := range spans {
		byJob[s.job] = append(byJob[s.job], i)
	}
	parent := make([]int, len(spans))
	for i := range parent {
		parent[i] = -1
	}
	for _, idx := range byJob {
		byName := map[string][]int{}
		for _, i := range idx {
			byName[spans[i].name] = append(byName[spans[i].name], i)
		}
		for _, i := range idx {
			pn, ok := nesting[spans[i].name]
			if !ok {
				continue
			}
			// The parent is the span of that name that covers the most of
			// this one (a job has one of each in practice).
			best, bestOv := -1, int64(-1)
			for _, p := range byName[pn] {
				if ov := overlap(spans[i], spans[p]); ov > bestOv {
					best, bestOv = p, ov
				}
			}
			parent[i] = best
		}
	}
	children := map[int][]int{}
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	// Clip every span to its parent, top-down, so a child reconstructed from
	// coarse timestamps never counts time outside its parent.
	clipped := append([]span(nil), spans...)
	var clip func(i int)
	clip = func(i int) {
		for _, c := range children[i] {
			cs := &clipped[c]
			if cs.start < clipped[i].start {
				cs.start = clipped[i].start
			}
			if cs.end > clipped[i].end {
				cs.end = clipped[i].end
			}
			if cs.end < cs.start {
				cs.end = cs.start
			}
			clip(c)
		}
	}
	self = map[string]int64{}
	for i := range clipped {
		if parent[i] < 0 {
			clip(i)
			rootWall += clipped[i].end - clipped[i].start
		}
	}
	for i, s := range clipped {
		var iv [][2]int64
		for _, c := range children[i] {
			iv = append(iv, [2]int64{clipped[c].start, clipped[c].end})
		}
		self[s.layer] += (s.end - s.start) - length(merge(iv))
	}
	for from, m := range credits {
		for to, ns := range m {
			self[from] -= ns
			self[to] += ns
		}
	}
	return self, rootWall
}

func overlap(a, b span) int64 {
	lo, hi := a.start, a.end
	if b.start > lo {
		lo = b.start
	}
	if b.end < hi {
		hi = b.end
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// merge sorts intervals and joins the overlapping ones.
func merge(iv [][2]int64) [][2]int64 {
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var out [][2]int64
	for _, x := range s {
		if n := len(out); n > 0 && x[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], x[1])
			continue
		}
		out = append(out, x)
	}
	return out
}

// length is the total length of merged (non-overlapping) intervals.
func length(merged [][2]int64) int64 {
	var n int64
	for _, x := range merged {
		n += x[1] - x[0]
	}
	return n
}

// intervalLog keeps the intervals of calls too numerous or too unkeyed to
// be spans (backend accesses, shard-resolve requests), on the tracer's
// clock, while the tracer records.
type intervalLog struct {
	tr *tracer
	mu sync.Mutex
	iv [][2]int64
}

func (l *intervalLog) add(t0 time.Time, d time.Duration) {
	if l == nil || !l.tr.on.Load() {
		return
	}
	start := int64(t0.Sub(l.tr.epoch))
	l.mu.Lock()
	l.iv = append(l.iv, [2]int64{start, start + int64(d)})
	l.mu.Unlock()
}

func (l *intervalLog) intervals() [][2]int64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][2]int64(nil), l.iv...)
}

// creditWaits splits the time one server spent running jobs (runs) into
// what the jobs' samplers computed (core, left in place) and what they
// waited on below them: osn while backend accesses were in flight
// (backend), cluster while shard-resolve requests for them were being
// served elsewhere (resolve). Calls carry no job, so it counts: at each
// instant with r jobs running, b backend calls and c resolves in flight,
// min(b, r) jobs wait on osn and min(c, r − that) on cluster. A sequential
// sampler has one access in flight at a time, so for it this is exact;
// a parallel job's concurrent accesses count once per job at most. It
// returns the two waits in ns.
func creditWaits(tr *tracer, runs, backend, resolve [][2]int64) (osnNs, clusterNs int64) {
	type event struct {
		at         int64
		dr, db, dc int
	}
	var ev []event
	for _, x := range runs {
		ev = append(ev, event{x[0], 1, 0, 0}, event{x[1], -1, 0, 0})
	}
	for _, x := range backend {
		ev = append(ev, event{x[0], 0, 1, 0}, event{x[1], 0, -1, 0})
	}
	for _, x := range resolve {
		ev = append(ev, event{x[0], 0, 0, 1}, event{x[1], 0, 0, -1})
	}
	sort.Slice(ev, func(i, j int) bool { return ev[i].at < ev[j].at })
	var r, b, c int
	for i, e := range ev {
		if i > 0 {
			dt := e.at - ev[i-1].at
			wb := min(b, r)
			osnNs += int64(wb) * dt
			clusterNs += int64(min(c, r-wb)) * dt
		}
		r, b, c = r+e.dr, b+e.db, c+e.dc
	}
	tr.credit("core", "osn", osnNs)
	tr.credit("core", "cluster", clusterNs)
	return osnNs, clusterNs
}

// timedBackend is a transparent osn.Backend decorator that counts and times
// every access. It forwards Inner and GraphView, so the network's kernel
// selection (ConcurrentBatch found along the Inner chain) and serve.Engine's
// chain walk (RemoteSim meters) see the same stack as without it.
type timedBackend struct {
	inner  osn.Backend
	log    *intervalLog // per-call intervals, for attributing waits (nil: none)
	fanout int64        // > 0 when inner simulates remote latency: batch width per wall round trip
	calls  atomic.Int64
	nodes  atomic.Int64
	busyNs atomic.Int64
	trips  atomic.Int64 // wall round trips (a k-node batch is ceil(k/fanout))
}

// newTimedBackend wraps inner; with a tracer it also logs every call's
// interval (nil: counters only).
func newTimedBackend(inner osn.Backend, tr *tracer) *timedBackend {
	tb := &timedBackend{inner: inner}
	if tr != nil {
		tb.log = &intervalLog{tr: tr}
	}
	if _, ok := inner.(*osn.RemoteSim); ok {
		tb.fanout = osn.DefaultFanout
	}
	return tb
}

func (b *timedBackend) note(t0 time.Time, nodes int) {
	d := time.Since(t0)
	b.busyNs.Add(int64(d))
	b.log.add(t0, d)
	b.calls.Add(1)
	b.nodes.Add(int64(nodes))
	if b.fanout > 0 {
		b.trips.Add((int64(nodes) + b.fanout - 1) / b.fanout)
	}
}

func (b *timedBackend) NumNodes() int { return b.inner.NumNodes() }
func (b *timedBackend) NumEdges() int { return b.inner.NumEdges() }

func (b *timedBackend) Degree(v int) int {
	t0 := time.Now()
	d := b.inner.Degree(v)
	b.note(t0, 1)
	return d
}

func (b *timedBackend) Neighbors(v int) []int32 {
	t0 := time.Now()
	n := b.inner.Neighbors(v)
	b.note(t0, 1)
	return n
}

func (b *timedBackend) NeighborsBatch(vs []int32, out [][]int32) {
	t0 := time.Now()
	b.inner.NeighborsBatch(vs, out)
	b.note(t0, len(vs))
}

func (b *timedBackend) Attr(name string, v int) (float64, bool) {
	t0 := time.Now()
	x, ok := b.inner.Attr(name, v)
	b.note(t0, 1)
	return x, ok
}

func (b *timedBackend) AttrNames() []string { return b.inner.AttrNames() }
func (b *timedBackend) Inner() osn.Backend  { return b.inner }

func (b *timedBackend) GraphView() *graph.Graph {
	if gv, ok := b.inner.(osn.GraphViewer); ok {
		return gv.GraphView()
	}
	return nil
}

// backendMeters is a snapshot of a timedBackend's counters.
type backendMeters struct{ calls, nodes, busyNs, trips int64 }

func (b *timedBackend) meters() backendMeters {
	if b == nil {
		return backendMeters{}
	}
	return backendMeters{b.calls.Load(), b.nodes.Load(), b.busyNs.Load(), b.trips.Load()}
}

func (m backendMeters) sub(o backendMeters) backendMeters {
	return backendMeters{m.calls - o.calls, m.nodes - o.nodes, m.busyNs - o.busyNs, m.trips - o.trips}
}

func (m backendMeters) add(o backendMeters) backendMeters {
	return backendMeters{m.calls + o.calls, m.nodes + o.nodes, m.busyNs + o.busyNs, m.trips + o.trips}
}

// jobHeader carries the benchmark's job key from its HTTP client to the
// first server it calls; spans further down are keyed by the benchmark
// itself (see jobKeyFunc).
const jobHeader = "X-Bench-Job"

// jobKeyFunc names the job a request belongs to, for requests the
// benchmark's client did not send itself (a coordinator's dispatch to a
// worker). body is the request body for POSTs, nil otherwise.
type jobKeyFunc func(r *http.Request, body []byte) string

// httpTiming wraps a handler and records one span per job submission
// (prefix+".submit") and per job stream (prefix+".stream"), and times
// shard-resolve requests into the resolve meters. Other requests
// (heartbeats, stats, status polls) pass through untimed.
type httpTiming struct {
	next    http.Handler
	tr      *tracer
	prefix  string // "serve.http" or "cluster.http"
	layer   string
	keyOf   jobKeyFunc
	resolve *resolveMeters // non-nil on workers
}

// resolveMeters aggregates the owner side of shard-resolve RPCs.
type resolveMeters struct {
	calls  atomic.Int64
	ids    atomic.Int64
	busyNs atomic.Int64
	log    *intervalLog
}

func (h *httpTiming) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if h.resolve != nil && path == "/cluster/v1/resolve" {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req struct {
			IDs []int32 `json:"ids"`
		}
		_ = json.Unmarshal(body, &req) // a bad body is the handler's to reject
		t0 := time.Now()
		h.next.ServeHTTP(w, r)
		d := time.Since(t0)
		h.resolve.busyNs.Add(int64(d))
		h.resolve.log.add(t0, d)
		h.resolve.calls.Add(1)
		h.resolve.ids.Add(int64(len(req.IDs)))
		return
	}
	if len(path) < 8 || path[:8] != "/v1/jobs" {
		h.next.ServeHTTP(w, r)
		return
	}
	var body []byte
	if r.Method == http.MethodPost {
		body, _ = io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	job := r.Header.Get(jobHeader)
	if job == "" && h.keyOf != nil {
		job = h.keyOf(r, body)
	}
	var name string
	switch {
	case r.Method == http.MethodPost && path == "/v1/jobs":
		name = h.prefix + ".submit"
	case r.Method == http.MethodGet && len(path) > 7 && path[len(path)-7:] == "/stream":
		name = h.prefix + ".stream"
	default:
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	h.tr.record(name, h.layer, job, start, h.tr.now())
}
