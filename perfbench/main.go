// Command perfbench is the repository's benchmark: one workload per run,
// end-to-end metrics from an untraced run (--trace 0) or per-layer metrics
// from a traced one (--trace 1), checked outputs, and one JSON result line.
//
//	go run . --workload lib-mem --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads and METRICS.md for what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef is one reported metric. endToEnd metrics are printed by
// untraced runs, the others by traced runs; BENCHMARK.json lists the same
// names and units (checked by TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit string
	endToEnd   bool
}

var metricDefs = []metricDef{
	{"samples_per_s", "1/s", true},
	{"queries_per_sample", "queries/sample", true},
	{"job_p50_ms", "ms", true},
	{"job_p90_ms", "ms", true},
	{"first_sample_p50_ms", "ms", true},
	{"first_sample_p90_ms", "ms", true},
	{"setup_s", "s", true},
	{"peak_rss_mb", "MB", true},

	{"graph.build_s", "s", false},
	{"osn.backend.calls", "count", false},
	{"osn.backend.nodes", "count", false},
	{"osn.backend.busy_s", "s", false},
	{"osn.sim.round_trips", "count", false},
	{"osn.sim.wait_s", "s", false},
	{"osn.sim.nodes_per_round_trip", "nodes/trip", false},
	{"osn.cache.queries", "count", false},
	{"osn.cache.hit_ratio", "ratio", false},
	{"osn.partition.remote_fallbacks", "count", false},
	{"walk.forward_steps_per_sample", "steps/sample", false},
	{"core.crawl_s", "s", false},
	{"core.backward_steps_per_sample", "steps/sample", false},
	{"core.acceptance_ratio", "ratio", false},
	{"core.seq.ns_per_step", "ns/step", false},
	{"core.par.ns_per_step", "ns/step", false},
	{"core.par.cpu_util", "ratio", false},
	{"samples_per_s_par", "1/s", false},
	{"runtime.alloc_bytes_per_sample", "B/sample", false},
	{"runtime.gc_cpu_fraction", "ratio", false},
	{"serve.queue_ms_p50", "ms", false},
	{"serve.queue_ms_p90", "ms", false},
	{"serve.run_ms_p50", "ms", false},
	{"serve.run_ms_p90", "ms", false},
	{"serve.result_cache.hit_ratio", "ratio", false},
	{"serve.cached_job_p50_ms", "ms", false},
	{"serve.journal.appends", "count", false},
	{"serve.journal.bytes", "B", false},
	{"serve.journal.fsyncs", "count", false},
	{"serve.http_overhead_ms_p50", "ms", false},
	{"serve.stream_bytes_per_sample", "B/sample", false},
	{"cluster.resolve.calls", "count", false},
	{"cluster.resolve.ids_per_call", "ids/call", false},
	{"cluster.resolve.busy_s", "s", false},
	{"cluster.relay_ms_p50", "ms", false},
	{"cluster.placement_skew", "ratio", false},
	{"cluster.handoffs", "count", false},
	{"trace.overhead", "ratio", false},
	{"trace.coverage_error", "ratio", false},
	{"trace.self_share.bench", "ratio", false},
	{"trace.self_share.serve", "ratio", false},
	{"trace.self_share.cluster", "ratio", false},
	{"trace.self_share.core", "ratio", false},
	{"trace.self_share.osn", "ratio", false},
}

// result accumulates one run's metrics, counts and report lines.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed job, sampler or output check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.note("FAIL: "+format, args...)
}

// setLatency reports the median and p90 of l as <prefix>_p50_ms and
// <prefix>_p90_ms, after checking that the p90 is the highest percentile
// with at least ten samples beyond it, and notes the sample count.
func (r *result) setLatency(prefix string, l *latencies, ceil float64) {
	p, ok := highestPercentile(l.count(), 10)
	r.note("%s latency: %d samples, highest percentile with >= 10 beyond: p%g", prefix, l.count(), 100*p)
	if !ok || p < 0.90 {
		r.fail("%s latency has %d samples, too few for a p90", prefix, l.count())
	}
	r.set(prefix+"_p50_ms", l.at(0.50, ceil))
	r.set(prefix+"_p90_ms", l.at(0.90, ceil))
}

// runOpts is what a workload run gets: its seed, its run length, the
// tracer (nil for untraced runs) and how many times to repeat the set-up.
type runOpts struct {
	seed   int64
	secs   int
	tr     *tracer
	setups int
}

// setupRepeats is how many times an untraced run of each workload sets up.
// lib-mem's set-up is one graph build of about 50 ms, which varies by ±20%
// with the host from one build to the next; it takes the median of many,
// spread over its first pass (runLibMem). The served workloads' set-ups
// take about 4 s each.
var setupRepeats = map[string]int{"lib-mem": 21, "serve-zipf": 3, "fleet-cold": 3}

// workloads are the runnable workloads. BENCHMARK.json lists serve-zipf and
// fleet-cold; lib-mem is run by hand (README.md): its figures are CPU time
// over MemBackend, which the host's load moves by up to 2× between runs.
var workloads = map[string]func(o runOpts) (*result, error){
	"lib-mem":    runLibMem,
	"serve-zipf": runServeZipf,
	"fleet-cold": runFleetCold,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "lib-mem | serve-zipf | fleet-cold")
	seed := flag.Int64("seed", 1, "workload seed: the graph and every spec derive from it")
	secs := flag.Int("seconds", refSeconds, "run length the job counts are sized for")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload lib-mem|serve-zipf|fleet-cold, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// Set-up is repeated and its median reported, except before a traced
	// run, whose untraced baseline only needs samples_per_s.
	setups := setupRepeats[*workload]
	if *trace == 1 {
		setups = 1
	}
	res, err := fn(runOpts{seed: *seed, secs: *secs, setups: setups})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	// lib-mem reads its own peak, leaving out the set-ups it drops.
	if _, ok := res.metrics["peak_rss_mb"]; !ok {
		res.set("peak_rss_mb", peakRSSMB())
	}
	out := res
	if *trace == 1 {
		// The traced run repeats the workload with spans on; the untraced
		// run above is the baseline for trace.overhead.
		tr := newTracer()
		traced, err := fn(runOpts{seed: *seed, secs: *secs, tr: tr, setups: 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s (traced): %v\n", *workload, err)
			return 1
		}
		traced.attempted += res.attempted
		traced.failed += res.failed
		traced.notes = append(res.notes, traced.notes...)
		if sps := traced.metrics["samples_per_s"]; sps > 0 {
			traced.set("trace.overhead", res.metrics["samples_per_s"]/sps-1)
		}
		traceMetrics(traced, tr, nestings[*workload])
		out = traced
	}
	return report(out, *trace == 1)
}

// nestings give each workload's span tree: child span name -> parent span
// name within one job. Names absent here are roots.
var nestings = map[string]map[string]string{
	"lib-mem": {
		"core.NewSampler":      "bench.sampler",
		"core.SampleN":         "bench.sampler",
		"core.SampleNParallel": "bench.sampler",
	},
	"serve-zipf": {
		"serve.http.submit": "bench.job",
		"serve.http.stream": "bench.job",
		"serve.queue":       "serve.http.stream",
		"serve.run":         "serve.http.stream",
	},
	"fleet-cold": {
		"cluster.http.submit": "bench.job",
		"cluster.http.stream": "bench.job",
		"serve.http.submit":   "cluster.http.submit",
		"serve.http.stream":   "cluster.http.stream",
		"serve.queue":         "serve.http.stream",
		"serve.run":           "serve.http.stream",
	},
}

// traceMetrics turns the recorded spans into per-layer self-time shares and
// checks that the self times account for the roots' wall time within 10%.
func traceMetrics(res *result, tr *tracer, nesting map[string]string) {
	self, wall := selfTimes(tr.spans, nesting, tr.credits)
	var sum int64
	for _, ns := range self {
		sum += ns
	}
	cov := ratio(sum, wall)
	res.set("trace.coverage_error", math.Abs(cov-1))
	for _, layer := range []string{"bench", "serve", "cluster", "core", "osn"} {
		res.set("trace.self_share."+layer, ratio(self[layer], wall))
	}
	res.note("trace: %d spans, root wall %.3fs, self times sum to %.4f of it", len(tr.spans), float64(wall)/1e9, cov)
	if math.Abs(cov-1) > 0.10 {
		res.fail("span self times cover %.3f of the root wall time (want 1 ± 0.10)", cov)
	}
}

// report prints every metric of the run by name and unit, then the result
// line: the end-to-end metrics of an untraced run or the per-layer metrics
// of a traced one.
func report(res *result, traced bool) int {
	for _, n := range res.notes {
		fmt.Println("# " + n)
	}
	metrics := map[string]any{}
	for _, d := range metricDefs {
		v, ok := res.metrics[d.name]
		if !ok {
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%-34s %16.6f %s\n", d.name, v, d.unit)
		if d.endToEnd != traced {
			metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		}
	}
	fmt.Printf("%-34s %16.6f %s\n", "failed_ratio", ratio(int64(res.failed), int64(res.attempted)), "ratio")
	var extra []string
	for name := range res.metrics {
		if !known(name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unlisted metrics %s\n", strings.Join(extra, ", "))
		return 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func known(name string) bool {
	for _, d := range metricDefs {
		if d.name == name {
			return true
		}
	}
	return false
}
