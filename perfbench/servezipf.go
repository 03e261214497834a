package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fastrand"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/serve"
)

// serve-zipf: an in-process serve.Manager + serve.Handler on a loopback
// listener over RemoteSim(mem, 2 ms), journal on, default result cache;
// nproc closed-loop callers submit a zipf mix over 1024 distinct specs.
//
// The mix is zipf(0.9) so that a third of the jobs hit the result cache
// (69 of the 210 jobs of a 30 s run) and both latency percentiles fall
// among live jobs, whose time is mostly simulated round trips. A
// result-cache hit is 0.3–0.5 ms of CPU work, which the host's load moves
// by up to 2× between runs; with most jobs hits (zipf(1.2) over 64 specs
// gives 74%), job_p50_ms and first_sample_p50_ms are that figure and
// spread past any bound. The hit path is reported as
// serve.cached_job_p50_ms.
const (
	zipfBaseJobs    = 140 // jobs per run at refSeconds
	zipfDistinct    = 1024
	zipfS           = 0.9
	zipfSamples     = 5 // samples per job: short jobs, so a 30 s run has 210
	zipfDirectCheck = 2 // live specs re-run directly on core.Sampler
)

// serveStack is one booted daemon: engine, manager, journal and listener.
type serveStack struct {
	g     *graph.Graph
	hub   int
	tb    *timedBackend
	sim   *osn.RemoteSim
	eng   *serve.Engine
	mgr   *serve.Manager
	jl    *serve.Journal
	srv   *server
	dir   string
	crawl time.Duration // the warm-up job's run time: the crawl-table build
}

func (s *serveStack) close() {
	s.srv.close()
	s.mgr.Close() // also closes the journal
	os.RemoveAll(s.dir)
}

// warmSpec is the per-daemon warm-up job: it builds the crawl table every
// later job reuses. Its seed is outside every workload's spec streams.
func warmSpec() serve.JobSpec {
	return serve.JobSpec{Count: 1, Seed: 7, Workers: 1, WalkLength: walkLen}
}

// newSimNetwork wraps the graph as the simulated remote API, with the
// timing decorator on top in traced runs.
func newSimNetwork(g *graph.Graph, tr *tracer) (*osn.Network, *osn.RemoteSim, *timedBackend) {
	sim := osn.NewRemoteSim(osn.NewMemBackend(g), simLatency, 0, 0)
	var be osn.Backend = sim
	var tb *timedBackend
	if tr != nil {
		tb = newTimedBackend(sim, tr)
		be = tb
	}
	return osn.NewNetworkOn(be), sim, tb
}

func bootServe(seed int64, tr *tracer, hc *http.Client) (*serveStack, time.Duration, error) {
	g, hub, build := buildGraph(seed)
	net, sim, tb := newSimNetwork(g, tr)
	s := &serveStack{g: g, hub: hub, tb: tb, sim: sim}
	if err := os.MkdirAll(runFilesDir(), 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(runFilesDir(), "journal-")
	if err != nil {
		return nil, 0, err
	}
	s.dir = dir
	s.jl, err = serve.OpenJournal(serve.JournalConfig{Dir: filepath.Join(dir, "j"), Fsync: serve.FsyncInterval})
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	s.eng = serve.NewEngine(net)
	s.mgr = serve.NewManager(s.eng, serve.Config{Journal: s.jl})
	var h http.Handler = serve.Handler(s.mgr)
	if tr != nil {
		h = &httpTiming{next: h, tr: tr, prefix: "serve.http", layer: "serve"}
	}
	s.srv, err = startServer(h)
	if err != nil {
		s.mgr.Close()
		os.RemoveAll(dir)
		return nil, 0, err
	}
	jr := runJob(hc, s.srv.url, "warm", warmSpec(), nil)
	if jr.err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up job: %w", jr.err)
	}
	if j, ok := s.mgr.Get(jr.id); ok {
		s.crawl = time.Duration(j.Status().RunMS * 1e6)
	}
	return s, build, nil
}

// runFilesDir is where runs keep files (journals), relative to the working
// directory: the checkout root when started by run.py. Each run removes
// what it wrote.
func runFilesDir() string { return filepath.Join(".bench_build", "tmp") }

// zipfSpec is spec rank k of the serve-zipf stream.
func zipfSpec(seed int64, k int) serve.JobSpec {
	return serve.JobSpec{Count: zipfSamples, Seed: specSeed(seed, 2, k), Workers: 1, WalkLength: walkLen}
}

func runServeZipf(o runOpts) (*result, error) {
	res := newResult()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	var s *serveStack
	var setups, builds, crawls []float64
	for i := 0; i < o.setups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var build time.Duration
		var err error
		s, build, err = bootServe(o.seed, o.tr, hc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, build.Seconds())
		crawls = append(crawls, s.crawl.Seconds())
	}
	defer s.close()
	settle()
	res.set("setup_s", median(setups))
	res.set("graph.build_s", median(builds))
	res.set("core.crawl_s", median(crawls))

	n := scaled(zipfBaseJobs, o.secs)
	assign := zipfAssign(o.seed, n, zipfDistinct, zipfS)
	runs := make([]jobRun, n)

	cache0, rc0, jl0 := s.eng.CacheStats(), s.mgr.ResultCacheStats(), s.jl.Stats()
	trips0, wait0, bm0 := s.sim.RoundTrips(), s.sim.SimulatedWait(), s.tb.meters()
	rt0 := takeRuntime()
	o.tr.begin()
	phase := time.Now()
	stop := callers(n, func(i int) {
		runs[i] = runJob(hc, s.srv.url, fmt.Sprintf("j%d", i), zipfSpec(o.seed, assign[i]), o.tr)
	})
	phaseWall := time.Since(phase)
	rt1 := takeRuntime()
	cache1, rc1, jl1 := s.eng.CacheStats(), s.mgr.ResultCacheStats(), s.jl.Stats()
	bm := s.tb.meters().sub(bm0)

	// Per-job accounting and the stream checks.
	var jobLat, firstLat latencies
	var delivered, streamBytes int64
	var live []jobStat
	var cachedMS []float64
	byRank := map[int][]int{}
	for i := range runs {
		jr := &runs[i]
		res.attempted++
		if jr.err == nil && len(jr.rows) != zipfSamples {
			jr.err = fmt.Errorf("%d of %d rows", len(jr.rows), zipfSamples)
		}
		if jr.err != nil {
			res.fail("job %d: %v", i, jr.err)
			jobLat.miss()
			firstLat.miss()
			continue
		}
		jobLat.add(millis(jr.latency))
		firstLat.add(millis(jr.firstSample))
		delivered += int64(len(jr.rows))
		streamBytes += jr.streamBytes
		byRank[assign[i]] = append(byRank[assign[i]], i)
		if jr.cached {
			cachedMS = append(cachedMS, millis(jr.latency))
			continue
		}
		if j, ok := s.mgr.Get(jr.id); ok {
			live = append(live, statOf(jr, j.Status()))
		}
	}
	checkRepeats(res, runs, byRank)
	checkDirect(res, s, runs, byRank, o.seed)

	ceil := millis(phaseWall)
	res.set("samples_per_s", steadyRate(runs, phase, stop))
	res.set("queries_per_sample", ratio(cache1.Queries-cache0.Queries, delivered))
	res.setLatency("job", &jobLat, ceil)
	res.setLatency("first_sample", &firstLat, ceil)
	setBackend(res, bm, s.sim.RoundTrips()-trips0, s.sim.SimulatedWait()-wait0)
	res.set("osn.cache.queries", float64(cache1.Queries-cache0.Queries))
	res.set("osn.partition.remote_fallbacks", float64(cache1.RemoteFallbacks-cache0.RemoteFallbacks))
	// Waits below the sampler, attributed from the traced run's call
	// intervals; untraced runs leave them at zero.
	var waits int64
	if o.tr != nil {
		traceClient(o.tr, runs)
		osnNs, _ := creditWaits(o.tr, traceServed(o.tr, live), s.tb.log.intervals(), nil)
		waits = osnNs
	}
	setLive(res, live, "core.seq.ns_per_step", waits, cache1.Queries-cache0.Queries)
	hits, misses := rc1.Hits-rc0.Hits, rc1.Misses-rc0.Misses
	res.set("serve.result_cache.hit_ratio", ratio(hits, hits+misses))
	res.set("serve.cached_job_p50_ms", median(cachedMS))
	res.set("serve.journal.appends", float64(jl1.Appends-jl0.Appends))
	res.set("serve.journal.bytes", float64(jl1.Bytes-jl0.Bytes))
	res.set("serve.journal.fsyncs", float64(jl1.Fsyncs-jl0.Fsyncs))
	res.set("serve.stream_bytes_per_sample", ratio(streamBytes, delivered))
	res.set("runtime.alloc_bytes_per_sample", allocPerSample(rt0, rt1, delivered))
	res.set("runtime.gc_cpu_fraction", gcFraction(rt0, rt1))
	res.note("serve-zipf: %d jobs over %d distinct specs (zipf s=%.1f), %d result-cache hits, %d samples delivered, %d simulated round trips, phase %.2fs",
		n, len(byRank), zipfS, hits, delivered, s.sim.RoundTrips()-trips0, phaseWall.Seconds())
	return res, nil
}

// jobStat is one live job as its server saw it.
type jobStat struct {
	run            *jobRun
	worker         int // fleet index of the worker that ran it
	queueMS, runMS float64
	acceptance     float64
	samples, steps int64
}

func statOf(jr *jobRun, st serve.JobStatus) jobStat {
	js := jobStat{run: jr, queueMS: st.QueueMS, runMS: st.RunMS, samples: int64(len(jr.rows))}
	if st.Result != nil {
		js.acceptance = st.Result.AcceptanceRate
	}
	for _, r := range jr.rows {
		js.steps += int64(r.Steps)
	}
	return js
}

// setBackend reports the backend meters of a served workload.
func setBackend(res *result, bm backendMeters, trips int64, wait time.Duration) {
	res.set("osn.backend.calls", float64(bm.calls))
	res.set("osn.backend.nodes", float64(bm.nodes))
	res.set("osn.backend.busy_s", float64(bm.busyNs)/1e9)
	res.set("osn.sim.round_trips", float64(trips))
	res.set("osn.sim.wait_s", wait.Seconds())
	res.set("osn.sim.nodes_per_round_trip", ratio(bm.nodes, bm.trips))
}

// setLive reports the walk, core and serve metrics of live (not cached)
// jobs. Forward steps are walkLen per candidate, and candidates are
// samples / acceptance rate; backward steps are the rest of the streamed
// step counts. nsName gets the jobs' run time minus the time they waited
// below the sampler (waitNs) per step; the cache hit ratio is the share of
// walk steps that charged no new node.
func setLive(res *result, live []jobStat, nsName string, waitNs, queries int64) {
	var samples, steps, attempts int64
	var queue, run, overhead []float64
	var runNs float64
	for _, js := range live {
		samples += js.samples
		steps += js.steps
		if js.acceptance > 0 {
			attempts += int64(float64(js.samples)/js.acceptance + 0.5)
		}
		queue = append(queue, js.queueMS)
		run = append(run, js.runMS)
		overhead = append(overhead, millis(js.run.latency)-js.queueMS-js.runMS)
		runNs += js.runMS * 1e6
	}
	fwd := attempts * walkLen
	res.set("walk.forward_steps_per_sample", ratio(fwd, samples))
	res.set("core.backward_steps_per_sample", ratio(steps-fwd, samples))
	res.set("core.acceptance_ratio", ratio(samples, attempts))
	res.set("osn.cache.hit_ratio", 1-ratio(queries, steps))
	if steps > 0 {
		res.set(nsName, (runNs-float64(waitNs))/float64(steps))
	}
	var ql, rl latencies
	for i := range queue {
		ql.add(queue[i])
		rl.add(run[i])
	}
	res.set("serve.queue_ms_p50", ql.at(0.5, 0))
	res.set("serve.queue_ms_p90", ql.at(0.9, 0))
	res.set("serve.run_ms_p50", rl.at(0.5, 0))
	res.set("serve.run_ms_p90", rl.at(0.9, 0))
	res.set("serve.http_overhead_ms_p50", median(overhead))
}

// traceClient records the client-side span of every completed job.
func traceClient(tr *tracer, runs []jobRun) {
	for i := range runs {
		jr := &runs[i]
		if jr.err == nil {
			tr.record("bench.job", "bench", jr.key, jr.start, jr.end)
		}
	}
}

// traceServed records the server-side queue and run spans of live jobs,
// placed after the submission that admitted them (the serve layer reports
// their durations, not their timestamps), and returns the run intervals.
func traceServed(tr *tracer, live []jobStat) [][2]int64 {
	var out [][2]int64
	submitEnd := map[string]int64{}
	tr.mu.Lock()
	for _, sp := range tr.spans {
		if sp.name == "serve.http.submit" {
			submitEnd[sp.job] = sp.end
		}
	}
	tr.mu.Unlock()
	for _, js := range live {
		at, ok := submitEnd[js.run.key]
		if !ok {
			continue
		}
		q, r := int64(js.queueMS*1e6), int64(js.runMS*1e6)
		tr.record("serve.queue", "serve", js.run.key, at, at+q)
		tr.record("serve.run", "core", js.run.key, at+q, at+q+r)
		out = append(out, [2]int64{at + q, at + q + r})
	}
	return out
}

// checkRepeats: every submission of one spec streams the same (i, node,
// steps) rows, and a result-cache hit replays a live run's rows exactly,
// cost included.
func checkRepeats(res *result, runs []jobRun, byRank map[int][]int) {
	for rank, idx := range byRank {
		res.attempted++
		ok := true
		for _, i := range idx[1:] {
			if !sameRows(runs[idx[0]].rows, runs[i].rows, false) {
				ok = false
			}
		}
		for _, i := range idx {
			if !runs[i].cached {
				continue
			}
			match := false
			for _, j := range idx {
				if !runs[j].cached && sameRows(runs[i].rows, runs[j].rows, true) {
					match = true
				}
			}
			ok = ok && match
		}
		if !ok {
			res.fail("spec rank %d: repeat submissions streamed different rows", rank)
		}
	}
}

// checkDirect re-runs a few live specs on core.Sampler directly, as a
// library user would over the in-memory backend, and compares node
// sequences with what the service streamed.
func checkDirect(res *result, s *serveStack, runs []jobRun, byRank map[int][]int, seed int64) {
	net := osn.NewNetworkOn(osn.NewMemBackend(s.g))
	checked := 0
	for rank := 0; rank < zipfDistinct && checked < zipfDirectCheck; rank++ {
		idx := byRank[rank]
		if len(idx) == 0 {
			continue
		}
		checked++
		res.attempted++
		spec := zipfSpec(seed, rank)
		rng := fastrand.New(spec.Seed)
		c := osn.NewClient(net, osn.CostUniqueNodes, rng)
		smp, err := core.NewSampler(c, libConfig(s.hub), rng)
		if err != nil {
			res.fail("direct sampler for spec rank %d: %v", rank, err)
			continue
		}
		direct, err := smp.SampleN(spec.Count)
		served := runs[idx[0]].rows
		ok := err == nil && len(direct.Nodes) == len(served)
		for i := 0; ok && i < len(served); i++ {
			ok = direct.Nodes[i] == served[i].Node
		}
		if !ok {
			res.fail("spec rank %d: served nodes differ from core.Sampler run directly", rank)
		}
	}
}
