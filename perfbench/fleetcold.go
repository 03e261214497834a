package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/serve"
)

// fleet-cold: an in-process cluster coordinator and two workers on
// loopback, each worker over its own RemoteSim(mem, 2 ms) network, journals
// off; nproc closed-loop callers submit only distinct specs with workers=2
// through the coordinator.
const (
	fleetWorkers    = 2
	fleetBaseJobs   = 110 // jobs per run at refSeconds
	fleetSamples    = 10  // samples per job
	fleetJobWorkers = 2
	fleetRecheck    = 3 // specs re-run on a fresh single-process manager
)

type fleetWorker struct {
	mgr *serve.Manager
	wk  *cluster.Worker
	srv *server
	sim *osn.RemoteSim
	tb  *timedBackend
	rm  *resolveMeters
}

type fleetStack struct {
	g       *graph.Graph
	co      *cluster.Coordinator
	coSrv   *server
	workers []*fleetWorker
	crawl   time.Duration // median warm-up run time across workers
}

func (f *fleetStack) close() {
	f.co.Close()
	f.coSrv.close()
	for _, w := range f.workers {
		w.wk.Close()
		w.srv.close()
		w.mgr.Close()
	}
}

// fleetSpec is spec k of the fleet-cold stream: every spec is distinct.
func fleetSpec(seed int64, k int) serve.JobSpec {
	return serve.JobSpec{Count: fleetSamples, Seed: specSeed(seed, 3, k), Workers: fleetJobWorkers, WalkLength: walkLen}
}

// seedKey maps a worker-side job back to the benchmark's job key through
// its spec seed (the coordinator's dispatch carries no benchmark header).
type seedKey struct {
	mu sync.Mutex
	m  map[int64]string
}

func (sk *seedKey) set(seed int64, key string) {
	sk.mu.Lock()
	sk.m[seed] = key
	sk.mu.Unlock()
}

func (sk *seedKey) get(seed int64) string {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	return sk.m[seed]
}

func bootFleet(seed int64, tr *tracer, hc *http.Client, keys *seedKey) (*fleetStack, time.Duration, error) {
	g, _, build := buildGraph(seed)
	co, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Workers: fleetWorkers})
	if err != nil {
		return nil, 0, err
	}
	var coH http.Handler = co.Handler()
	if tr != nil {
		coH = &httpTiming{next: coH, tr: tr, prefix: "cluster.http", layer: "cluster"}
	}
	coSrv, err := startServer(coH)
	if err != nil {
		co.Close()
		return nil, 0, err
	}
	f := &fleetStack{g: g, co: co, coSrv: coSrv}
	for i := 0; i < fleetWorkers; i++ {
		net, sim, tb := newSimNetwork(g, tr)
		mgr := serve.NewManager(serve.NewEngine(net), serve.Config{})
		fw := &fleetWorker{mgr: mgr, sim: sim, tb: tb}
		// The handler is installed after the worker exists (it needs the
		// worker's advertised URL first); requests before that cannot come.
		var h http.Handler
		var hmu sync.RWMutex
		fw.srv, err = startServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hmu.RLock()
			hh := h
			hmu.RUnlock()
			hh.ServeHTTP(w, r)
		}))
		if err != nil {
			mgr.Close()
			f.close()
			return nil, 0, err
		}
		fw.wk, err = cluster.NewWorker(mgr, cluster.WorkerConfig{
			Coordinator:    coSrv.url,
			Advertise:      fw.srv.url,
			Name:           fmt.Sprintf("w%d", i),
			HeartbeatEvery: 50 * time.Millisecond,
		})
		if err != nil {
			fw.srv.close()
			mgr.Close()
			f.close()
			return nil, 0, err
		}
		var wh http.Handler = fw.wk.Handler()
		if tr != nil {
			fw.rm = &resolveMeters{log: &intervalLog{tr: tr}}
			wh = &httpTiming{next: wh, tr: tr, prefix: "serve.http", layer: "serve", resolve: fw.rm,
				keyOf: workerKey(mgr, keys)}
		}
		hmu.Lock()
		h = wh
		hmu.Unlock()
		f.workers = append(f.workers, fw)
		if err := fw.wk.Start(); err != nil {
			f.close()
			return nil, 0, err
		}
	}
	// Ready once every worker is live and has installed its cache
	// partition; jobs before that would break exact fleet charging.
	deadline := time.Now().Add(20 * time.Second)
	for !f.ready() {
		if time.Now().After(deadline) {
			f.close()
			return nil, 0, fmt.Errorf("fleet did not become ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// One crawl-table warm-up job per worker, submitted to the workers
	// directly and concurrently, as each daemon start pays it.
	var wg sync.WaitGroup
	errs := make([]error, fleetWorkers)
	crawls := make([]float64, fleetWorkers)
	for i, fw := range f.workers {
		wg.Add(1)
		go func(i int, fw *fleetWorker) {
			defer wg.Done()
			jr := runJob(hc, fw.srv.url, "warm", warmSpec(), nil)
			errs[i] = jr.err
			if j, ok := fw.mgr.Get(jr.id); ok {
				crawls[i] = j.Status().RunMS / 1e3
			}
		}(i, fw)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			f.close()
			return nil, 0, fmt.Errorf("warm-up job: %w", err)
		}
	}
	f.crawl = time.Duration(median(crawls) * 1e9)
	return f, build, nil
}

func (f *fleetStack) ready() bool {
	if f.co.WorkersLive() != fleetWorkers {
		return false
	}
	for _, w := range f.workers {
		if w.mgr.Engine().Cache().Partition() == nil {
			return false
		}
	}
	return true
}

// workerKey names the job a worker-side request belongs to: by the spec
// seed in a submission body, by the worker job's spec for a stream.
func workerKey(mgr *serve.Manager, keys *seedKey) jobKeyFunc {
	return func(r *http.Request, body []byte) string {
		if body != nil {
			var spec serve.JobSpec
			if json.Unmarshal(body, &spec) == nil {
				return keys.get(spec.Seed)
			}
			return ""
		}
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/stream")
		if j, ok := mgr.Get(id); ok {
			return keys.get(j.Spec().Seed)
		}
		return ""
	}
}

func runFleetCold(o runOpts) (*result, error) {
	res := newResult()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	keys := &seedKey{m: map[int64]string{}}
	var f *fleetStack
	var setups, builds, crawls []float64
	for i := 0; i < o.setups; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var build time.Duration
		var err error
		f, build, err = bootFleet(o.seed, o.tr, hc, keys)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, build.Seconds())
		crawls = append(crawls, f.crawl.Seconds())
	}
	defer f.close()
	settle()
	res.set("setup_s", median(setups))
	res.set("graph.build_s", median(builds))
	res.set("core.crawl_s", median(crawls))

	n := scaled(fleetBaseJobs, o.secs)
	runs := make([]jobRun, n)
	specs := make([]serve.JobSpec, n)
	for k := range specs {
		specs[k] = fleetSpec(o.seed, k)
		keys.set(specs[k].Seed, "j"+strconv.Itoa(k))
	}
	fleet0 := f.co.Summary(true)
	cache0, trips0, wait0, bm0, rm0 := f.meters()
	rt0 := takeRuntime()
	o.tr.begin()
	phase := time.Now()
	stop := callers(n, func(i int) {
		runs[i] = runJob(hc, f.coSrv.url, "j"+strconv.Itoa(i), specs[i], o.tr)
	})
	phaseWall := time.Since(phase)
	rt1 := takeRuntime()
	fleet1 := f.co.Summary(true)
	cache1, trips1, wait1, bm1, rm1 := f.meters()
	bm := bm1.sub(bm0)

	// Worker-side status of every job, by spec seed.
	type placed struct {
		st     serve.JobStatus
		worker int
	}
	workerStatus := map[int64]placed{}
	perWorker := make([]int, fleetWorkers)
	for wi, fw := range f.workers {
		for _, st := range fw.mgr.List() {
			if st.Spec.Seed == warmSpec().Seed {
				continue
			}
			workerStatus[st.Spec.Seed] = placed{st, wi}
			perWorker[wi]++
		}
	}

	var jobLat, firstLat latencies
	var delivered, streamBytes int64
	var live []jobStat
	for i := range runs {
		jr := &runs[i]
		res.attempted++
		if jr.err == nil && len(jr.rows) != fleetSamples {
			jr.err = fmt.Errorf("%d of %d rows", len(jr.rows), fleetSamples)
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
		if p, ok := workerStatus[specs[i].Seed]; ok {
			js := statOf(jr, p.st)
			js.worker = p.worker
			live = append(live, js)
		}
	}
	checkFleet(res, f, fleet1, cache1, cache0, runs, specs, hc)

	queries := fleet1.FleetQueries - fleet0.FleetQueries
	ceil := millis(phaseWall)
	res.set("samples_per_s", steadyRate(runs, phase, stop))
	res.set("samples_per_s_par", steadyRate(runs, phase, stop))
	res.set("queries_per_sample", ratio(queries, delivered))
	res.setLatency("job", &jobLat, ceil)
	res.setLatency("first_sample", &firstLat, ceil)
	setBackend(res, bm, trips1-trips0, wait1-wait0)
	res.set("osn.cache.queries", float64(queries))
	res.set("osn.partition.remote_fallbacks", float64(cache1.RemoteFallbacks-cache0.RemoteFallbacks))
	// Waits below the sampler, attributed per worker from the traced run's
	// call intervals: its own backend accesses, and the resolve requests its
	// jobs sent to the other worker (the only peer in a two-worker fleet).
	var waits int64
	if o.tr != nil {
		traceClient(o.tr, runs)
		for wi, fw := range f.workers {
			var mine []jobStat
			for _, js := range live {
				if js.worker == wi {
					mine = append(mine, js)
				}
			}
			peer := f.workers[(wi+1)%fleetWorkers]
			osnNs, clusterNs := creditWaits(o.tr, traceServed(o.tr, mine), fw.tb.log.intervals(), peer.rm.log.intervals())
			waits += osnNs + clusterNs
		}
	}
	resolveBusy := rm1.busyNs - rm0.busyNs
	setLive(res, live, "core.par.ns_per_step", waits, queries)
	hits := fleet1.CacheHits - fleet0.CacheHits
	res.set("serve.result_cache.hit_ratio", ratio(hits, hits+fleet1.CacheMisses-fleet0.CacheMisses))
	res.set("serve.stream_bytes_per_sample", ratio(streamBytes, delivered))
	res.set("cluster.resolve.calls", float64(rm1.calls-rm0.calls))
	res.set("cluster.resolve.ids_per_call", ratio(rm1.ids-rm0.ids, rm1.calls-rm0.calls))
	res.set("cluster.resolve.busy_s", float64(resolveBusy)/1e9)
	// Client latency beyond the worker's queue and run time: on a fleet the
	// HTTP path is the coordinator's relay.
	res.set("cluster.relay_ms_p50", res.metrics["serve.http_overhead_ms_p50"])
	res.set("cluster.placement_skew", skew(perWorker))
	res.set("cluster.handoffs", float64(fleet1.Handoffs-fleet0.Handoffs))
	res.set("runtime.alloc_bytes_per_sample", allocPerSample(rt0, rt1, delivered))
	res.set("runtime.gc_cpu_fraction", gcFraction(rt0, rt1))
	res.note("fleet-cold: %d distinct jobs on %d workers (%v per worker), %d samples delivered, phase %.2fs",
		n, fleetWorkers, perWorker, delivered, phaseWall.Seconds())
	return res, nil
}

// meters sums the workers' cache, simulated-network, backend and resolve
// meters.
func (f *fleetStack) meters() (osn.CacheStats, int64, time.Duration, backendMeters, resolveSnap) {
	var cs osn.CacheStats
	var trips int64
	var wait time.Duration
	var bm backendMeters
	var rs resolveSnap
	for _, w := range f.workers {
		c := w.mgr.Engine().CacheStats()
		cs.Queries += c.Queries
		cs.RemoteFallbacks += c.RemoteFallbacks
		trips += w.sim.RoundTrips()
		wait += w.sim.SimulatedWait()
		bm = bm.add(w.tb.meters())
		if w.rm != nil {
			rs.calls += w.rm.calls.Load()
			rs.ids += w.rm.ids.Load()
			rs.busyNs += w.rm.busyNs.Load()
		}
	}
	return cs, trips, wait, bm, rs
}

type resolveSnap struct{ calls, ids, busyNs int64 }

// skew is how far the busiest worker's job count is above the mean.
func skew(perWorker []int) float64 {
	total, most := 0, 0
	for _, n := range perWorker {
		total += n
		most = max(most, n)
	}
	if total == 0 {
		return 0
	}
	return float64(most)/(float64(total)/float64(len(perWorker))) - 1
}

// checkFleet: no remote fallbacks (exact charging) and no hand-offs, and a
// few specs re-run on a fresh single-process manager stream the same rows.
func checkFleet(res *result, f *fleetStack, sum cluster.ClusterSummary, c1, c0 osn.CacheStats,
	runs []jobRun, specs []serve.JobSpec, hc *http.Client) {
	res.attempted++
	if fb := c1.RemoteFallbacks - c0.RemoteFallbacks; fb != 0 || sum.Handoffs != 0 {
		res.fail("fleet charging not exact: %d remote fallbacks, %d hand-offs", fb, sum.Handoffs)
	}
	// Over the in-memory backend the fresh manager's workers pick the
	// scalar kernel, the fleet's the batch kernel: equal streams also pin
	// the kernel equivalence.
	mgr := serve.NewManager(serve.NewEngine(osn.NewNetworkOn(osn.NewMemBackend(f.g))), serve.Config{})
	defer mgr.Close()
	srv, err := startServer(serve.Handler(mgr))
	if err != nil {
		res.fail("single-process re-run: %v", err)
		return
	}
	defer srv.close()
	for k := 0; k < fleetRecheck && k < len(runs); k++ {
		res.attempted++
		jr := runJob(hc, srv.url, "recheck", specs[k], nil)
		if jr.err != nil || runs[k].err != nil || !sameRows(jr.rows, runs[k].rows, false) {
			res.fail("spec %d: fleet stream differs from a single-process re-run", k)
		}
	}
}
