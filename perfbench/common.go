package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// Workload shape shared by all three workloads.
const (
	graphNodes = 100_000
	graphM     = 5
	// walkLen is the paper's 2·D̄+1 with D̄ = 7, a conservative bound for
	// BA(100k, m=5): the double-sweep estimate reads 6 or 7 depending on the
	// graph seed, and a fixed bound keeps the walk length, and so the work
	// per sample, the same for every seed.
	walkLen   = 15
	crawlHops = 2
	// simLatency is the per-round-trip latency of the simulated remote API
	// the served workloads sit on (no jitter). It is 2 ms so that the round
	// trips, not CPU work, set the served workloads' times: at 1 ms,
	// fleet-cold spent about a third of its wall time on CPU (each cold miss
	// also costs an in-process HTTP resolve call between the workers), and
	// one seed's samples_per_s read 94 and 113 in runs a minute apart as the
	// host's load moved that share.
	simLatency = 2 * time.Millisecond
	// minJobs is the fewest jobs (or samplers) a run measures: the p90 needs
	// ten samples beyond it.
	minJobs = 100
	// refSeconds is the --seconds value the per-workload job counts are
	// sized for; other values scale them linearly.
	refSeconds = 20
)

// scaled sizes a job count for the requested run length, never below
// minJobs.
func scaled(base, seconds int) int {
	n := base * seconds / refSeconds
	if n < minJobs {
		n = minJobs
	}
	return n
}

// buildGraph generates the workload graph from the workload seed and
// returns it with its max-degree node (every sampler's start, as the
// service's default) and the generation time.
func buildGraph(seed int64) (*graph.Graph, int, time.Duration) {
	t0 := time.Now()
	g := gen.BarabasiAlbert(graphNodes, graphM, fastrand.New(seed))
	d := time.Since(t0)
	hub := 0
	for v := 1; v < g.NumNodes(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	return g, hub, d
}

// specSeed derives the RNG seed of spec k of a workload stream; never 0,
// which a job spec reads as "default".
func specSeed(seed, stream int64, k int) int64 {
	s := fastrand.Mix(seed, stream, int64(k)) & (1<<53 - 1) // exact in JSON numbers
	if s == 0 {
		s = 1
	}
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// settle runs after the repeated set-ups: it frees what the discarded
// set-ups left behind and restarts the peak-RSS meter (Linux clear_refs),
// so peak_rss_mb is the kept set-up plus the measured phase, not an
// artefact of setting up several times.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	// Without clear_refs (non-Linux, restricted /proc) the peak includes
	// the discarded set-ups; nothing else depends on it.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSnap is the Go runtime's allocation and GC CPU meters at a phase
// boundary.
type runtimeSnap struct {
	alloc        uint64
	gcCPU, total float64
}

func takeRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	snap := runtimeSnap{alloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		snap.total = s[1].Value.Float64()
	}
	return snap
}

// allocPerSample and gcFraction turn two snapshots into the runtime
// per-layer metrics.
func allocPerSample(a, b runtimeSnap, samples int64) float64 {
	if samples == 0 {
		return 0
	}
	return float64(b.alloc-a.alloc) / float64(samples)
}

func gcFraction(a, b runtimeSnap) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.total - a.total)
}

// server is an HTTP server on a loopback listener, stopped by close.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close() // severs open streams; nothing left to flush
	<-s.done
}

// row is one streamed sample line.
type row struct {
	I     int   `json:"i"`
	Node  int   `json:"node"`
	Steps int   `json:"steps"`
	Cost  int64 `json:"cost"`
}

// jobRun is what a caller saw of one job over HTTP.
type jobRun struct {
	key         string
	id          string
	rows        []row
	cached      bool
	err         error
	begun       time.Time
	rowAt       []time.Duration // per row: POST to the row's arrival
	latency     time.Duration   // POST to terminal line
	firstSample time.Duration   // POST to first sample line
	streamBytes int64
	start, end  int64 // tracer clock, for the client-side span
}

// runJob submits spec to base over HTTP and follows its NDJSON stream to
// the terminal line, like a streaming user.
func runJob(hc *http.Client, base, key string, spec serve.JobSpec, tr *tracer) jobRun {
	jr := jobRun{key: key}
	if tr != nil {
		jr.start = tr.now()
	}
	t0 := time.Now()
	jr.begun = t0
	body, err := json.Marshal(spec)
	if err != nil {
		jr.err = err
		return jr
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		jr.err = err
		return jr
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(jobHeader, key)
	resp, err := hc.Do(req)
	if err != nil {
		jr.err = fmt.Errorf("submit: %w", err)
		return jr
	}
	var st struct {
		ID string `json:"id"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	drain(resp)
	if resp.StatusCode != http.StatusAccepted || decErr != nil || st.ID == "" {
		jr.err = fmt.Errorf("submit: %s", resp.Status)
		return jr
	}
	jr.id = st.ID
	req, err = http.NewRequest(http.MethodGet, base+"/v1/jobs/"+st.ID+"/stream", nil)
	if err != nil {
		jr.err = err
		return jr
	}
	req.Header.Set(jobHeader, key)
	resp, err = hc.Do(req)
	if err != nil {
		jr.err = fmt.Errorf("stream: %w", err)
		return jr
	}
	defer drain(resp)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		jr.streamBytes += int64(len(line)) + 1
		var l struct {
			Done   bool   `json:"done"`
			State  string `json:"state"`
			Cached bool   `json:"cached"`
			Error  string `json:"error"`
			row
		}
		if err := json.Unmarshal(line, &l); err != nil {
			jr.err = fmt.Errorf("stream line: %w", err)
			return jr
		}
		if l.Done {
			jr.latency = time.Since(t0)
			if tr != nil {
				jr.end = tr.now()
			}
			jr.cached = l.Cached
			if l.State != string(serve.JobDone) {
				jr.err = fmt.Errorf("job %s ended %s: %s", st.ID, l.State, l.Error)
			}
			return jr
		}
		at := time.Since(t0)
		if len(jr.rows) == 0 {
			jr.firstSample = at
		}
		jr.rows = append(jr.rows, l.row)
		jr.rowAt = append(jr.rowAt, at)
	}
	jr.err = fmt.Errorf("stream of %s ended without a terminal line: %v", st.ID, sc.Err())
	return jr
}

// drain reads a response to its end and closes it, so the connection goes
// back to the client's pool instead of being torn down.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // nothing useful can follow a read error here
	resp.Body.Close()
}

// callers runs jobs 0..n-1 with nproc closed-loop callers that take the
// next job index from a shared cursor. It returns when all are done, with
// the time the first caller found the list empty: from then on fewer than
// nproc callers are busy.
func callers(n int, do func(i int)) time.Time {
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var drained time.Time
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					once.Do(func() { drained = time.Now() })
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
	return drained
}

// steadyRate is the rate at which sample rows reached the callers while
// all of them were busy, from the start of the phase until the job list ran
// out; the ramp-down after it, with callers idling, is left out.
func steadyRate(runs []jobRun, phase, drained time.Time) float64 {
	var n int64
	for i := range runs {
		for _, at := range runs[i].rowAt {
			if !runs[i].begun.Add(at).After(drained) {
				n++
			}
		}
	}
	return perSecond(n, drained.Sub(phase))
}

// sameRows compares two streams on (i, node, steps), and on cost too when
// withCost is set.
func sameRows(a, b []row, withCost bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.I != y.I || x.Node != y.Node || x.Steps != y.Steps || (withCost && x.Cost != y.Cost) {
			return false
		}
	}
	return true
}
