package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/osn"
	"repro/internal/serve"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{20, 0.50, true},
		{99, 0.50, true}, // p90 has 9 beyond
		{100, 0.90, true},
		{999, 0.90, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := highestPercentile(c.n, 10)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestLatenciesCountMissesBeyondEveryJob(t *testing.T) {
	var l latencies
	for i := 1; i <= 85; i++ {
		l.add(float64(i))
	}
	for i := 0; i < 15; i++ {
		l.miss()
	}
	if n := l.count(); n != 100 {
		t.Fatalf("count = %d, want 100", n)
	}
	if got := l.at(0.50, 1e9); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := l.at(0.90, 1e9); got != 1e9 {
		t.Errorf("p90 = %g, want the ceiling: rank 90 is a miss", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "job", layer: "bench", job: "a", start: 0, end: 100},
		{name: "run", layer: "core", job: "a", start: 10, end: 60},
		{name: "run", layer: "core", job: "a", start: 40, end: 90},
		// A second job: a child reconstructed past its parent's end is
		// clipped to it.
		{name: "job", layer: "bench", job: "b", start: 200, end: 250},
		{name: "run", layer: "core", job: "b", start: 210, end: 270},
	}
	self, wall := selfTimes(spans, map[string]string{"run": "job"}, nil)
	if wall != 150 {
		t.Errorf("root wall = %d, want 150", wall)
	}
	// Job a: the children cover [10, 90], once, so the parent keeps 20.
	// Job b: the child counts only [210, 250].
	if self["bench"] != 20+10 {
		t.Errorf("bench self = %d, want 30", self["bench"])
	}
	// The two concurrent children each keep their whole duration: their
	// overlap is what makes the sum exceed the root wall.
	if self["core"] != 50+50+40 {
		t.Errorf("core self = %d, want 140", self["core"])
	}
	self, _ = selfTimes(spans, map[string]string{"run": "job"}, map[string]map[string]int64{"core": {"osn": 30}})
	if self["core"] != 110 || self["osn"] != 30 {
		t.Errorf("after a 30ns credit core/osn = %d/%d, want 110/30", self["core"], self["osn"])
	}
}

func TestCreditWaitsCountsWaitingJobs(t *testing.T) {
	tr := newTracer()
	runs := [][2]int64{{0, 100}, {50, 150}}
	backend := [][2]int64{{10, 30}, {20, 40}, {140, 200}} // overlapping calls of one job; one past the runs
	resolve := [][2]int64{{35, 60}}
	osnNs, clusterNs := creditWaits(tr, runs, backend, resolve)
	if osnNs != 30+10 {
		t.Errorf("osn wait = %d, want 40", osnNs)
	}
	if clusterNs != 20 { // [35, 60] minus the backend wait up to 40
		t.Errorf("cluster wait = %d, want 20", clusterNs)
	}
	if tr.credits["core"]["osn"] != osnNs || tr.credits["core"]["cluster"] != clusterNs {
		t.Errorf("credits %v do not match the waits", tr.credits)
	}
	// Two jobs each waiting on their own call at once wait twice as long
	// in all as one.
	osnNs, _ = creditWaits(newTracer(), [][2]int64{{0, 10}, {0, 10}}, [][2]int64{{0, 10}, {2, 10}}, nil)
	if osnNs != 18 {
		t.Errorf("two concurrent waits = %d, want 18", osnNs)
	}
}

func TestZipfAssignIsPreDrawnFromTheSeed(t *testing.T) {
	a, b := zipfAssign(3, 200, 64, 1.2), zipfAssign(3, 200, 64, 1.2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different assignments")
	}
	c := zipfAssign(4, 200, 64, 1.2)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same order")
	}
	count := func(xs []int) map[int]int {
		m := map[int]int{}
		for _, x := range xs {
			m[x]++
		}
		return m
	}
	// The multiplicities do not depend on the seed, only the order does.
	if !reflect.DeepEqual(count(a), count(c)) {
		t.Error("multiplicities depend on the seed")
	}
	m := count(zipfAssign(1, 100, 64, 1.2))
	if len(m) != 35 || m[0] < m[1] || m[1] < m[2] {
		t.Errorf("100 jobs over zipf(1.2, 64): %d distinct specs, head %d %d %d; want 35, non-increasing",
			len(m), m[0], m[1], m[2])
	}
	// serve-zipf's 30 s mix: 141 distinct specs in 210 jobs, 69 repeats.
	if m := count(zipfAssign(1, scaled(zipfBaseJobs, 30), zipfDistinct, zipfS)); len(m) != 141 {
		t.Errorf("serve-zipf at 30 s: %d distinct specs, want 141", len(m))
	}
	// Callers take the list in index order, so whichever caller runs job i
	// submits rank a[i]: the assignment is fixed before any caller starts.
	seen := make([]int, len(a))
	callers(len(a), func(i int) { seen[i] = a[i] })
	if !reflect.DeepEqual(seen, a) {
		t.Error("callers changed the assignment")
	}
}

// TestTimedBackendIsTransparent: the tracing decorator changes neither the
// kernel selection nor the serve engine's view of the backend stack, nor
// any sample.
func TestTimedBackendIsTransparent(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 5, fastrand.New(11))
	hub := 0
	for v := 1; v < g.NumNodes(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	tr := newTracer()
	tr.begin()

	// lib-mem: one sampler of each kind over the in-memory backend.
	plain := osn.NewNetworkOn(osn.NewMemBackend(g))
	timed := osn.NewNetworkOn(newTimedBackend(osn.NewMemBackend(g), tr))
	for _, ls := range libSequence(5, 1) {
		a, errA := runLibSampler(plain, nil, hub, ls, 50, 2)
		b, errB := runLibSampler(timed, nil, hub, ls, 50, 2)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !reflect.DeepEqual(a.nodes, b.nodes) {
			t.Errorf("lib-mem sampler (parallel=%t): decorator changed the nodes", ls.parallel)
		}
	}
	cp := osn.NewClient(plain, osn.CostUniqueNodes, fastrand.New(1))
	ct := osn.NewClient(timed, osn.CostUniqueNodes, fastrand.New(1))
	if cp.ConcurrentBatch() || ct.ConcurrentBatch() {
		t.Error("in-memory backend must select the scalar kernel with or without the decorator")
	}

	// fleet-cold: one spec served over the simulated remote API.
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	var rows [2][]row
	for i, tracer := range []*tracer{nil, tr} {
		net, sim, tb := newSimNetwork(g, tracer)
		if (tb != nil) != (tracer != nil) {
			t.Fatal("decorator present in the wrong run")
		}
		if !osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(1)).ConcurrentBatch() {
			t.Errorf("run %d: simulated backend must select the batch kernel", i)
		}
		eng := serve.NewEngine(net)
		if eng.Sim() != sim {
			t.Errorf("run %d: the engine did not find the RemoteSim under the stack", i)
		}
		mgr := serve.NewManager(eng, serve.Config{})
		srv, err := startServer(serve.Handler(mgr))
		if err != nil {
			t.Fatal(err)
		}
		jr := runJob(hc, srv.url, "t", fleetSpec(5, 0), nil)
		srv.close()
		mgr.Close()
		if jr.err != nil {
			t.Fatal(jr.err)
		}
		rows[i] = jr.rows
	}
	if !sameRows(rows[0], rows[1], true) {
		t.Error("fleet-cold spec: decorator changed the stream")
	}
}

func TestSteadyRateStopsAtTheDrain(t *testing.T) {
	t0 := time.Unix(100, 0)
	runs := []jobRun{
		{begun: t0, rowAt: []time.Duration{time.Second, 2 * time.Second}},
		{begun: t0.Add(time.Second), rowAt: []time.Duration{time.Second, 5 * time.Second}},
	}
	// Drained at +3s: three rows arrived by then.
	if got := steadyRate(runs, t0, t0.Add(3*time.Second)); math.Abs(got-1) > 1e-12 {
		t.Errorf("rate = %g, want 1 row/s", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads (lib-mem aside), and the same metrics, units and
// split between end-to-end and per-layer.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{"lib-mem": true} // run by hand, not listed
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
		listed[w.Name] = true
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %q is not in BENCHMARK.json", name)
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, true})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, false})
	}
	if got := append(e2e, layer...); !reflect.DeepEqual(got, metricDefs) {
		t.Errorf("BENCHMARK.json metrics differ from metricDefs:\n%v\n%v", got, metricDefs)
	}
}
