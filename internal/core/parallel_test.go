package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/osn"
	"repro/internal/walk"
)

func parallelTestSampler(t *testing.T, seed int64) *Sampler {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := gen.BarabasiAlbert(2000, 3, rand.New(rand.NewSource(42)))
	net := osn.NewNetwork(g)
	c := osn.NewClient(net, osn.CostUniqueNodes, rng)
	s, err := NewSampler(c, Config{
		Design:         walk.SRW{},
		Start:          0,
		WalkLength:     9,
		UseCrawl:       true,
		CrawlHops:      2,
		UseWeighted:    true,
		VarianceBudget: 4,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSampleNParallelDeterministic is the determinism contract: identical
// (seed, workers) must yield the identical sample sequence, regardless of
// goroutine scheduling. Run under -race this also exercises the pipeline's
// snapshot handoff and shared-cache locking.
func TestSampleNParallelDeterministic(t *testing.T) {
	const n, workers = 30, 4
	var first []int
	for run := 0; run < 3; run++ {
		s := parallelTestSampler(t, 7)
		res, err := s.SampleNParallel(n, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Nodes) != n {
			t.Fatalf("run %d: got %d samples, want %d", run, len(res.Nodes), n)
		}
		if run == 0 {
			first = append([]int(nil), res.Nodes...)
			continue
		}
		for i := range first {
			if res.Nodes[i] != first[i] {
				t.Fatalf("run %d: sample %d = %d, want %d (nondeterministic pipeline)", run, i, res.Nodes[i], first[i])
			}
		}
	}
}

// TestSampleNParallelAccounting checks that the parallel run reports sane
// bookkeeping: positive step counts per sample, a nondecreasing fleet-wide
// cost axis, and acceptance counters consistent with the result.
func TestSampleNParallelAccounting(t *testing.T) {
	s := parallelTestSampler(t, 9)
	res, err := s.SampleNParallel(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(0); s.TotalSteps() <= got {
		t.Error("TotalSteps not accumulated")
	}
	var prev int64
	for i := range res.Nodes {
		if res.Steps[i] <= 0 {
			t.Errorf("sample %d: nonpositive step count %d", i, res.Steps[i])
		}
		if res.CostAfter[i] < prev {
			t.Errorf("sample %d: cost axis decreased %d -> %d", i, prev, res.CostAfter[i])
		}
		prev = res.CostAfter[i]
	}
	if rate := s.AcceptanceRate(); rate <= 0 || rate > 1 {
		t.Errorf("acceptance rate %v out of range", rate)
	}
	if s.c.Shared() == nil {
		t.Error("parallel run should have promoted the client to a shared cache")
	}
}

// TestSampleNParallelArgs covers the edge and error paths.
func TestSampleNParallelArgs(t *testing.T) {
	s := parallelTestSampler(t, 11)
	if _, err := s.SampleNParallel(5, 0); err == nil {
		t.Error("workers=0 must error")
	}
	if _, err := s.SampleNParallel(-1, 2); err == nil {
		t.Error("negative n must error")
	}
	res, err := s.SampleNParallel(0, 2)
	if err != nil || res.Len() != 0 {
		t.Errorf("n=0: %v, %d samples", err, res.Len())
	}
	res, err = s.SampleNParallel(3, 1) // delegates to the sequential path
	if err != nil || res.Len() != 3 {
		t.Errorf("workers=1: %v, %d samples", err, res.Len())
	}
}

// TestEstimateAllParallelExact runs the parallel batch estimator on a graph
// whose crawl table covers the full walk length, so every estimate is exact:
// the output must match the oracle (and hence sequential EstimateAll) to
// floating-point accuracy, for any worker count.
func TestEstimateAllParallelExact(t *testing.T) {
	g := gen.Cycle(12)
	start, steps := 0, 3
	c := newClient(g, 21)
	ct, err := BuildCrawlTable(c, walk.SRW{}, start, steps)
	if err != nil {
		t.Fatal(err)
	}
	e := &Estimator{Client: c, Design: walk.SRW{}, Start: start, Crawl: ct}
	nodes := []int{0, 1, 2, 3, 9, 11}
	exact := linalg.NewSRW(g).DistFrom(start, steps)

	for _, workers := range []int{1, 2, 4} {
		got, err := EstimateAllParallel(e, nodes, steps, 3, 6, workers, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range nodes {
			if math.Abs(got[u]-exact[u]) > 1e-12 {
				t.Errorf("workers=%d: p_%d(%d) = %v, exact %v", workers, steps, u, got[u], exact[u])
			}
		}
	}
}

// TestEstimateAllParallelDeterministicPerSeed checks that the estimates are
// a function of the seed alone — the same for every worker count — on a
// graph where backward walks are genuinely random (no crawl shortcut).
func TestEstimateAllParallelDeterministicPerSeed(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(31)))
	nodes := []int{5, 17, 40, 99}
	const steps = 5

	// A partial crawl table (h < steps) keeps the last backward hops random
	// while making typical estimates nonzero, so seed changes are observable.
	mkEstimator := func() *Estimator {
		c := newClient(g, 33)
		ct, err := BuildCrawlTable(c, walk.SRW{}, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		return &Estimator{Client: c, Design: walk.SRW{}, Start: 0, Crawl: ct}
	}

	results := make([]map[int]float64, 0, 3)
	for _, workers := range []int{1, 2, 4} {
		got, err := EstimateAllParallel(mkEstimator(), nodes, steps, 4, 8, workers, 77)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, got)
	}
	for _, got := range results[1:] {
		for _, u := range nodes {
			if got[u] != results[0][u] {
				t.Errorf("estimate for %d varies with workers: %v vs %v", u, got[u], results[0][u])
			}
		}
	}

	// A different seed must (generically) give different randomness.
	other, err := EstimateAllParallel(mkEstimator(), nodes, steps, 4, 8, 2, 78)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for _, u := range nodes {
		if other[u] != results[0][u] {
			same = false
		}
	}
	if same {
		t.Error("seed change did not alter the estimates")
	}
}

// TestHistorySnapshotIsolation checks the History snapshot contract:
// snapshots are immune to further recording (copy-on-write pages), and
// out-of-range lookups are 0.
func TestHistorySnapshotIsolation(t *testing.T) {
	h := NewHistory()
	h.RecordWalk([]int{3, 1, 4})
	snap := h.Snapshot()
	h.RecordWalk([]int{3, 1, 4})
	h.RecordWalk([]int{3, 500, 4}) // forces row regrowth at step 1

	if snap.Walks() != 1 || snap.Hits(3, 0) != 1 || snap.Hits(1, 1) != 1 {
		t.Errorf("snapshot mutated: walks=%d hits(3,0)=%d hits(1,1)=%d", snap.Walks(), snap.Hits(3, 0), snap.Hits(1, 1))
	}
	if h.Walks() != 3 || h.Hits(3, 0) != 3 || h.Hits(500, 1) != 1 {
		t.Errorf("live history wrong: walks=%d hits(3,0)=%d hits(500,1)=%d", h.Walks(), h.Hits(3, 0), h.Hits(500, 1))
	}
	if h.Hits(500, 0) != 0 || h.Hits(0, 9) != 0 || h.Hits(-1, 1) != 0 || h.Hits(1, -1) != 0 {
		t.Error("out-of-range lookups must be 0")
	}
	empty := NewHistory().Snapshot()
	if empty.Walks() != 0 || empty.Hits(0, 0) != 0 {
		t.Error("empty snapshot not empty")
	}
}

// TestSnapshotEstimatesAcrossGenerations checks that a snapshot is a
// faithful WS-BW input: EstimateOnce against it equals EstimateOnce against
// the live history at the same walk count, bit for bit, across successive
// snapshot generations (older snapshots still alive) and across a Release
// followed by re-recording the same walks.
func TestSnapshotEstimatesAcrossGenerations(t *testing.T) {
	const tSteps = 7
	d := walk.SRW{}
	g := gen.BarabasiAlbert(3000, 4, rand.New(rand.NewSource(21)))
	net := osn.NewNetwork(g)
	// Forward walks charge their own client so the two estimators' query
	// meters stay comparable.
	walker := osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(6))
	// A partial crawl table (shared, built on its own client) makes most
	// estimates nonzero while steps 7..3 still run the WS-BW pick.
	ct, err := BuildCrawlTable(osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(7)), d, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	live := NewHistory()
	onSnap := &Estimator{Client: osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(5)), Design: d, Crawl: ct}
	onLive := &Estimator{Client: osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(5)), Design: d, Crawl: ct, Hist: live}
	rngS, rngL := fastrand.New(4), fastrand.New(4)
	nonzero := 0

	record := func(seed int64) int {
		walkRNG := rand.New(rand.NewSource(seed))
		var v int
		for w := 0; w < 5; w++ {
			path := walk.Path(walker, d, 0, tSteps, walkRNG)
			live.RecordWalk(path)
			v = path[len(path)-1]
		}
		return v
	}
	check := func(label string, snap *History, v int) {
		t.Helper()
		if snap.Walks() != live.Walks() {
			t.Fatalf("%s: snapshot walks %d != live %d", label, snap.Walks(), live.Walks())
		}
		onSnap.Hist = snap
		for i := 0; i < 6; i++ {
			got, err1 := onSnap.EstimateOnce(v, tSteps, rngS)
			want, err2 := onLive.EstimateOnce(v, tSteps, rngL)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: estimate errors: %v / %v", label, err1, err2)
			}
			if got != want {
				t.Fatalf("%s rep %d: snapshot %v != live %v", label, i, got, want)
			}
			if got != 0 {
				nonzero++
			}
		}
	}

	var snaps []*History
	for k := 0; k < 8; k++ {
		v := record(int64(13 + k))
		snap := live.Snapshot()
		snaps = append(snaps, snap)
		check(fmt.Sprintf("generation %d", k), snap, v)
	}
	for _, s := range snaps {
		s.Release()
	}

	// Release empties the live history; re-recording generation 0's walks
	// must reproduce a history whose snapshot and live reads agree again.
	live.Release()
	v := record(13)
	reborn := live.Snapshot()
	check("after release", reborn, v)
	reborn.Release()

	if nonzero == 0 {
		t.Fatal("every estimate was 0: the fixture never reaches the start node")
	}
	if onSnap.StepsTaken != onLive.StepsTaken {
		t.Fatalf("StepsTaken %d != %d", onSnap.StepsTaken, onLive.StepsTaken)
	}
	if sq, lq := onSnap.Client.TotalQueries(), onLive.Client.TotalQueries(); sq != lq {
		t.Fatalf("queries %d != %d", sq, lq)
	}
}

// TestEstimateAllParallelGolden pins EstimateAllParallel's output bits —
// SRW and MHRW, weighted backward sampling over a recorded history, one
// fixed seed, 2 workers — to recorded values. The values were recorded
// while a WS-BW step-distribution cache still served a few hundred of this
// fixture's hub picks from a snapshot; they pin that the plain row gather
// in backStep draws the same bits, and catch any later kernel change that
// is not bit-identical.
func TestEstimateAllParallelGolden(t *testing.T) {
	g := gen.BarabasiAlbert(1000, 12, rand.New(rand.NewSource(51)))
	net := osn.NewNetwork(g)
	const steps, walks = 9, 200
	want := map[string][]uint64{
		"SRW": {
			0x3f4013a553785fb3, 0x3f43349f633e0a82, 0x3f4ab64b6777d6b1, 0x3f4205945630fb82, 0x3f563fa327e045dd,
			0x3f5459c87961c207, 0x3f430e506d78984a, 0x3f3be3986e5b0f4e, 0x3f457de0ac26254f, 0x3f49561f4bf1dd53,
		},
		"MHRW": {
			0x3f223f6feda3b1aa, 0x3f3192f2e97f7da3, 0x3f40fe05c1c2a608, 0x3f2f1674955c1e57, 0x3f60ccbf35faeadc,
			0x3f51724b08a1b283, 0x3f36b92a78215c8f, 0x3f3f1e9008eab784, 0x3f21b4d4a7e39eec, 0x3f3ad03a20093f9c,
		},
	}
	for _, d := range []walk.Design{walk.SRW{}, walk.MHRW{}} {
		walker := osn.NewClient(net, osn.CostUniqueNodes, rand.New(rand.NewSource(3)))
		walkRNG := rand.New(rand.NewSource(5))
		hist := NewHistory()
		var nodes []int
		for w := 0; w < walks; w++ {
			path := walk.Path(walker, d, 0, steps, walkRNG)
			hist.RecordWalk(path)
			if w%20 == 0 {
				nodes = append(nodes, path[len(path)-1])
			}
		}
		c := osn.NewClient(net, osn.CostUniqueNodes, rand.New(rand.NewSource(9)))
		// A partial crawl table keeps the last hops exact so most estimates
		// are nonzero, while steps 9..3 still run the WS-BW pick.
		ct, err := BuildCrawlTable(c, d, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		e := &Estimator{Client: c, Design: d, Start: 0, Crawl: ct, Hist: hist}
		got, err := EstimateAllParallel(e, nodes, steps, 30, 60, 2, 2024)
		if err != nil {
			t.Fatal(err)
		}
		w := want[d.Name()]
		if len(nodes) != len(w) {
			t.Fatalf("%s: %d nodes, want %d", d.Name(), len(nodes), len(w))
		}
		for i, u := range nodes {
			if bits := math.Float64bits(got[u]); bits != w[i] {
				t.Errorf("%s: estimate for node %d = %#016x (%v), want %#016x (%v)",
					d.Name(), u, bits, got[u], w[i], math.Float64frombits(w[i]))
			}
		}
	}
}
