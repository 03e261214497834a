package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fastrand"
	"repro/internal/osn"
	"repro/internal/walk"
)

// lib-mem: library use of WALK-ESTIMATE over the in-memory backend. One
// caller runs a seed-derived sequence of fresh samplers that alternate
// SampleN and SampleNParallel(n, nproc); each crawls its own h-ball.
const (
	libSamplesPerSampler = 800
	libBaseSamplers      = 100 // SampleN samplers per run at refSeconds; as many SampleNParallel ones
	libRuns              = 2   // runs of each SampleN sampler; the fastest is kept
)

// libConfig is every lib-mem sampler's configuration: SRW, t = 2·D̄+1,
// crawl h = 2, weighted backward sampling.
func libConfig(hub int) core.Config {
	return core.Config{Design: walk.SRW{}, Start: hub, WalkLength: walkLen,
		UseCrawl: true, CrawlHops: crawlHops, UseWeighted: true}
}

// libSampler is one sampler of the lib-mem sequence.
type libSampler struct {
	seed     int64
	parallel bool
}

func libSequence(seed int64, perKind int) []libSampler {
	out := make([]libSampler, 2*perKind)
	for k := range out {
		out[k] = libSampler{seed: specSeed(seed, 1, k), parallel: k%2 == 1}
	}
	return out
}

// libOutcome is one sampler's measured run.
type libOutcome struct {
	nodes              []int
	samples            int
	crawl, sample      time.Duration
	firstSample        time.Duration // from NewSampler to the first accepted sample
	queries            int64
	fwd, bwd, attempts int64
	crawlBusy          backendMeters // backend accesses during NewSampler (the crawl)
	sampleBusy         backendMeters // backend accesses during the sampling call
	cpu                time.Duration // process CPU during the sampling call
}

// runLibSampler creates a fresh client and sampler and draws n samples.
func runLibSampler(net *osn.Network, tb *timedBackend, hub int, ls libSampler, n, workers int) (libOutcome, error) {
	var out libOutcome
	rng := fastrand.New(ls.seed)
	c := osn.NewClient(net, osn.CostUniqueNodes, rng)
	m0 := tb.meters()
	t0 := time.Now()
	s, err := core.NewSampler(c, libConfig(hub), rng)
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	m1 := tb.meters()
	s.OnSample = func(ev core.SampleEvent) {
		if ev.Index == 0 {
			out.firstSample = time.Since(t0)
		}
	}
	cpu0 := cpuTime()
	var res walk.Result
	if ls.parallel {
		res, err = s.SampleNParallel(n, workers)
	} else {
		res, err = s.SampleN(n)
	}
	t2 := time.Now()
	out.cpu = cpuTime() - cpu0
	if err != nil {
		return out, err
	}
	out.crawlBusy, out.sampleBusy = m1.sub(m0), tb.meters().sub(m1)
	out.crawl, out.sample = t1.Sub(t0), t2.Sub(t1)
	out.nodes, out.samples = res.Nodes, res.Len()
	out.queries = c.TotalQueries()
	out.fwd, out.bwd = s.ForwardSteps(), s.BackwardSteps()
	out.attempts = out.fwd / walkLen
	return out, nil
}

func runLibMem(o runOpts) (*result, error) {
	seed, tr := o.seed, o.tr
	res := newResult()
	workers := runtime.NumCPU()

	// Set-up: build the graph and wrap it as a network. An untraced run
	// times o.setups set-ups: the one it uses, before the passes, and the
	// rest spread over the first pass, one after every few samplers, their
	// results dropped. A set-up takes about 50 ms, and the host's speed
	// moves by ±15% from one second to the next, so set-ups timed together
	// measure the host in the second they ran; spread over the pass, their
	// median follows the host over the run, as the other figures do.
	var setups, builds []float64
	setUp := func() (int, *osn.Network, *timedBackend) {
		t0 := time.Now()
		g, hub, build := buildGraph(seed)
		var be osn.Backend = osn.NewMemBackend(g)
		var tb *timedBackend
		if tr != nil {
			// Counters only: lib-mem makes millions of backend calls, and
			// with one sampler at a time their time is attributed per
			// sampler from the counters.
			tb = newTimedBackend(be, nil)
			be = tb
		}
		net := osn.NewNetworkOn(be)
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, build.Seconds())
		return hub, net, tb
	}
	hub, net, tb := setUp()
	settle()

	seq := libSequence(seed, scaled(libBaseSamplers, o.secs))
	setupEvery := len(seq) / max(o.setups, 1)
	var peakMB float64
	var (
		parSamples, allSamples      int64
		parWall, parSampleWall      time.Duration
		queries, fwd, bwd, attempts int64
		seqNs, parNs                float64 // wall minus backend busy, ns
		seqSteps, parSteps          int64
		parCPU                      time.Duration
		busy                        backendMeters
		crawls                      []float64
		firstPass                   = map[int]libOutcome{} // SampleN samplers by index
	)
	rt0 := takeRuntime()
	tr.begin()
	phase := time.Now()
	for k, ls := range seq {
		if k > 0 && k%setupEvery == 0 && len(setups) < o.setups {
			// Keep the dropped set-up out of peak_rss_mb: note the peak so
			// far, then free what the set-up left and restart the meter.
			peakMB = max(peakMB, peakRSSMB())
			setUp()
			settle()
		}
		res.attempted++
		job := fmt.Sprintf("s%d", k)
		var start int64
		if tr != nil {
			start = tr.now()
		}
		out, err := runLibSampler(net, tb, hub, ls, libSamplesPerSampler, workers)
		if err == nil && out.samples != libSamplesPerSampler {
			err = fmt.Errorf("drew %d of %d samples", out.samples, libSamplesPerSampler)
		}
		if err != nil {
			res.fail("sampler %d: %v", k, err)
			continue
		}
		if tr != nil {
			end := tr.now()
			mid := end - int64(out.sample)
			tr.record("bench.sampler", "bench", job, start, end)
			tr.record("core.NewSampler", "core", job, start, mid)
			name := "core.SampleN"
			if ls.parallel {
				name = "core.SampleNParallel"
			}
			tr.record(name, "core", job, mid, end)
			tr.credit("core", "osn", out.crawlBusy.busyNs+out.sampleBusy.busyNs)
		}
		steps := out.fwd + out.bwd
		if ls.parallel {
			parSamples += int64(out.samples)
			parWall += out.crawl + out.sample
			parNs += float64(out.sample) - float64(out.sampleBusy.busyNs)
			parSteps += steps
			parCPU += out.cpu
			parSampleWall += out.sample
		} else {
			seqNs += float64(out.sample) - float64(out.sampleBusy.busyNs)
			seqSteps += steps
			firstPass[k] = out
		}
		allSamples += int64(out.samples)
		queries += out.queries
		fwd += out.fwd
		bwd += out.bwd
		attempts += out.attempts
		busy = busy.add(out.crawlBusy).add(out.sampleBusy)
		crawls = append(crawls, out.crawl.Seconds())
	}
	rt1 := takeRuntime()

	// Further passes over the SampleN samplers, in the same order, after the
	// whole first pass. Each run must reproduce the sampler's node sequence
	// exactly (the output check). Each sampler keeps the lowest of its
	// libRuns run times: the runs are a pass apart, so a burst of load from
	// outside the process rarely hits all of them, while a slower program
	// slows every one.
	wall, first := map[int]time.Duration{}, map[int]time.Duration{}
	for k, out := range firstPass {
		wall[k], first[k] = out.crawl+out.sample, out.firstSample
	}
	for pass := 2; pass <= libRuns; pass++ {
		for k, ls := range seq {
			if _, kept := wall[k]; ls.parallel || !kept {
				continue
			}
			res.attempted++
			b, err := runLibSampler(net, nil, hub, ls, libSamplesPerSampler, workers)
			if err != nil || !equalInts(firstPass[k].nodes, b.nodes) {
				res.fail("run %d of sampler %d gave a different node sequence", pass, k)
				delete(wall, k)
				continue
			}
			wall[k], first[k] = min(wall[k], b.crawl+b.sample), min(first[k], b.firstSample)
		}
	}
	var jobLat, firstLat latencies
	var seqSamples int64
	var seqWall time.Duration
	for k, ls := range seq {
		if ls.parallel {
			continue
		}
		if _, ok := wall[k]; !ok {
			jobLat.miss()
			firstLat.miss()
			continue
		}
		seqSamples += libSamplesPerSampler
		seqWall += wall[k]
		jobLat.add(millis(wall[k]))
		firstLat.add(millis(first[k]))
	}
	phaseWall := time.Since(phase)

	// The parallel engine's output check: its first sampler, re-run, must
	// reproduce its node sequence too.
	for k, ls := range seq {
		if !ls.parallel {
			continue
		}
		res.attempted++
		a, errA := runLibSampler(net, nil, hub, ls, libSamplesPerSampler, workers)
		b, errB := runLibSampler(net, nil, hub, ls, libSamplesPerSampler, workers)
		if errA != nil || errB != nil || !equalInts(a.nodes, b.nodes) {
			res.fail("re-run of parallel sampler %d gave a different node sequence", k)
		}
		break
	}

	res.set("setup_s", median(setups))
	res.set("peak_rss_mb", max(peakMB, peakRSSMB()))
	res.set("graph.build_s", median(builds))

	ceil := millis(phaseWall)
	res.set("samples_per_s", perSecond(seqSamples, seqWall))
	res.set("samples_per_s_par", perSecond(parSamples, parWall))
	res.set("queries_per_sample", ratio(queries, allSamples))
	res.setLatency("job", &jobLat, ceil)
	res.setLatency("first_sample", &firstLat, ceil)
	res.set("osn.backend.calls", float64(busy.calls))
	res.set("osn.backend.nodes", float64(busy.nodes))
	res.set("osn.backend.busy_s", float64(busy.busyNs)/1e9)
	res.set("osn.cache.queries", float64(queries))
	res.set("osn.cache.hit_ratio", 1-ratio(queries, fwd+bwd))
	res.set("walk.forward_steps_per_sample", ratio(fwd, allSamples))
	res.set("core.backward_steps_per_sample", ratio(bwd, allSamples))
	res.set("core.acceptance_ratio", ratio(allSamples, attempts))
	res.set("core.crawl_s", median(crawls))
	res.set("core.seq.ns_per_step", seqNs/float64(max(seqSteps, 1)))
	res.set("core.par.ns_per_step", parNs/float64(max(parSteps, 1)))
	if parSampleWall > 0 {
		res.set("core.par.cpu_util", float64(parCPU)/(float64(parSampleWall)*float64(workers)))
	}
	res.set("runtime.alloc_bytes_per_sample", allocPerSample(rt0, rt1, allSamples))
	res.set("runtime.gc_cpu_fraction", gcFraction(rt0, rt1))
	res.note("lib-mem: %d samplers (%d SampleN, %d SampleNParallel with %d workers), %d samples each, %d samples in all, phase %.2fs",
		len(seq), len(seq)/2, len(seq)/2, workers, libSamplesPerSampler, allSamples, phaseWall.Seconds())
	return res, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func perSecond(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
