package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/osn"
	"repro/internal/serve"
)

// getStatus fetches one coordinator job status; ok is false on 404.
func (tf *testFleet) getStatus(t *testing.T, id string) (JobStatus, bool) {
	t.Helper()
	resp, err := http.Get(tf.coSrv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return JobStatus{}, false
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, true
}

// workerJobs counts the jobs every worker of the fleet has admitted.
func (tf *testFleet) workerJobs() int {
	n := 0
	for _, tw := range tf.wks {
		n += len(tw.mgr.List())
	}
	return n
}

func openJournal(t *testing.T, dir string) *serve.Journal {
	t.Helper()
	jl, err := serve.OpenJournal(serve.JournalConfig{Dir: dir, Fsync: serve.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	return jl
}

// sameRowsAs checks a relayed stream against a reference sample sequence on
// (i, node, steps); costs depend on cache warmth and are excluded.
func sameRowsAs(t *testing.T, what string, rows []streamRow, want []serve.Sample) {
	t.Helper()
	if len(rows) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(rows), len(want))
	}
	for i, r := range rows {
		if r.I == nil || *r.I != want[i].Index || r.Node != want[i].Node || r.Steps != want[i].Steps {
			t.Fatalf("%s: row %d = %+v, want %+v", what, i, r, want[i])
		}
	}
}

// A journaled coordinator restarted over a fresh fleet serves its finished
// jobs from the journal without dispatching them, and re-dispatches the job
// it was closed in the middle of: that job's stream equals an uninterrupted
// single-process run of the same spec.
func TestCoordinatorJournalRecovery(t *testing.T) {
	g := testGraph()
	mkNet := func() *osn.Network {
		return osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), time.Millisecond, 0, 8))
	}
	wcfg := serve.Config{Runners: 1, WorkerBudget: 4}
	done := serve.JobSpec{Type: serve.TypeSample, Count: 10, Seed: 21, Workers: 2}
	cut := serve.JobSpec{Type: serve.TypeSample, Count: 40, Seed: 22, Workers: 2}

	// Reference: the interrupted spec, uninterrupted, in one process.
	ref := serve.NewManager(serve.NewEngine(mkNet()), wcfg)
	rj, err := ref.Submit(cut)
	if err != nil {
		t.Fatal(err)
	}
	refRows := waitRows(t, ref, rj.ID())
	ref.Close()

	dir := t.TempDir()
	tf := startFleet(t, 2, mkNet, wcfg, CoordinatorConfig{Journal: openJournal(t, dir)})
	stA := tf.submit(t, done)
	rowsA, termA := tf.readStream(t, stA.ID, nil)
	if termA.State != string(serve.JobDone) {
		t.Fatalf("finished job: %+v", termA)
	}
	finA, _ := tf.getStatus(t, stA.ID)
	stB := tf.submit(t, cut)
	resp, err := http.Get(tf.coSrv.URL + "/v1/jobs/" + stB.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(resp.Body)
	for n := 0; n < 5; n++ {
		var row streamRow
		if err := dec.Decode(&row); err != nil || row.Done {
			t.Fatalf("stream of the job to interrupt ended early: %+v %v", row, err)
		}
	}
	tf.co.Close() // mid-stream: the job is abandoned, not journaled terminal
	resp.Body.Close()
	tf.close()

	tf2 := startFleet(t, 2, mkNet, wcfg, CoordinatorConfig{Journal: openJournal(t, dir)})
	defer tf2.close()
	rowsB, termB := tf2.readStream(t, stB.ID, nil)
	if termB.State != string(serve.JobDone) {
		t.Fatalf("re-dispatched job: %+v", termB)
	}
	sameRowsAs(t, "re-dispatched stream", rowsB, refRows)

	before := tf2.workerJobs()
	if before == 0 {
		t.Fatal("the interrupted job was not re-dispatched")
	}
	gotA, ok := tf2.getStatus(t, stA.ID)
	if !ok || gotA.State != serve.JobDone || gotA.Result == nil {
		t.Fatalf("finished job after restart: %+v (found %v)", gotA, ok)
	}
	if len(gotA.Result.Nodes) != len(finA.Result.Nodes) || gotA.Digest != finA.Digest {
		t.Fatalf("finished job status changed across restart: %+v vs %+v", gotA, finA)
	}
	for i := range finA.Result.Nodes {
		if gotA.Result.Nodes[i] != finA.Result.Nodes[i] {
			t.Fatalf("result node %d changed across restart", i)
		}
	}
	replay, termA2 := tf2.readStream(t, stA.ID, nil)
	if termA2.State != string(serve.JobDone) || len(replay) != len(rowsA) {
		t.Fatalf("finished job replay: %+v, %d rows want %d", termA2, len(replay), len(rowsA))
	}
	for i := range rowsA {
		if *replay[i].I != *rowsA[i].I || replay[i].Node != rowsA[i].Node || replay[i].Steps != rowsA[i].Steps {
			t.Fatalf("replayed row %d differs: %+v vs %+v", i, replay[i], rowsA[i])
		}
	}
	if after := tf2.workerJobs(); after != before {
		t.Fatalf("serving a finished job dispatched work: worker jobs %d -> %d", before, after)
	}
}

// waitRows waits for a single-process job to finish and returns its rows.
func waitRows(t *testing.T, m *serve.Manager, id string) []serve.Sample {
	t.Helper()
	srv := httptest.NewServer(serve.Handler(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var rows []serve.Sample
	for {
		var row streamRow
		if err := dec.Decode(&row); err != nil {
			t.Fatalf("reference stream: %v", err)
		}
		if row.Done {
			if row.State != string(serve.JobDone) {
				t.Fatalf("reference job: %+v", row)
			}
			return rows
		}
		rows = append(rows, serve.Sample{Index: *row.I, Node: row.Node, Steps: row.Steps})
	}
}

// fakeWorker registers a scripted worker with a coordinator: its job
// submissions block until release is closed, and it counts stream requests.
type fakeWorker struct {
	srv      *httptest.Server
	posted   chan struct{}
	release  chan struct{}
	streams  atomic.Int64
	postOnce atomic.Bool
}

func newFakeWorker(t *testing.T, coURL string) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{posted: make(chan struct{}), release: make(chan struct{})}
	fw.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			if fw.postOnce.CompareAndSwap(false, true) {
				close(fw.posted)
			}
			<-fw.release
			spec := serve.JobSpec{Type: serve.TypeSample, Design: "srw", Count: 5, Seed: 1, Workers: 1}
			writeJSON(w, http.StatusAccepted, serve.JobStatus{ID: "job-000001", State: serve.JobQueued, Spec: spec, Digest: "d1"})
		case r.Method == http.MethodGet && len(r.URL.Path) > len("/stream") && r.URL.Path[len(r.URL.Path)-len("/stream"):] == "/stream":
			fw.streams.Add(1)
			httpError(w, http.StatusNotFound, "no such job")
		default:
			httpError(w, http.StatusNotFound, "not scripted")
		}
	}))
	body, _ := json.Marshal(RegisterRequest{Addr: fw.srv.URL, Name: "fake"})
	resp, err := http.Post(coURL+PathRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register fake worker: %s", resp.Status)
	}
	return fw
}

// A submission whose placement is still in flight when the coordinator
// closes must be refused as draining once the worker answers: it must not
// get a 202 after Close returned, and no relay may start for it.
func TestCoordinatorSubmitCloseRace(t *testing.T) {
	co, err := NewCoordinator(CoordinatorConfig{Workers: 1, HeartbeatTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	fw := newFakeWorker(t, srv.URL)
	defer fw.srv.Close()

	type answer struct {
		code int
		body map[string]any
	}
	got := make(chan answer, 1)
	go func() {
		body, _ := json.Marshal(serve.JobSpec{Count: 5, Seed: 1})
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			got <- answer{code: -1}
			return
		}
		defer resp.Body.Close()
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		got <- answer{code: resp.StatusCode, body: m}
	}()
	select {
	case <-fw.posted:
	case <-time.After(10 * time.Second):
		t.Fatal("the submission never reached the worker")
	}
	co.Close()
	close(fw.release)
	var a answer
	select {
	case a = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the submission never returned")
	}
	if a.code != http.StatusServiceUnavailable || a.body["error"] != "draining" {
		t.Fatalf("submit racing Close: %d %v, want 503 draining", a.code, a.body)
	}
	if jobs := co.List(); len(jobs) != 0 {
		t.Fatalf("a refused job was registered: %+v", jobs)
	}
	if n := fw.streams.Load(); n != 0 {
		t.Fatalf("worker saw %d stream requests for a refused job", n)
	}
}

// The coordinator's job table is bounded by the same retention as a
// daemon's: a sweep past serve.DefaultRetention evicts finished jobs and
// keeps running ones, and evicted ids stay gone across a journal restart.
func TestCoordinatorRetention(t *testing.T) {
	g := testGraph()
	mkNet := func() *osn.Network {
		return osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), 2*time.Millisecond, 0, 8))
	}
	dir := t.TempDir()
	tf := startFleet(t, 1, mkNet, serve.Config{Runners: 2, WorkerBudget: 4},
		CoordinatorConfig{Journal: openJournal(t, dir)})
	defer tf.close()

	fin := tf.submit(t, serve.JobSpec{Type: serve.TypeSample, Count: 5, Seed: 31, Workers: 1})
	if _, term := tf.readStream(t, fin.ID, nil); term.State != string(serve.JobDone) {
		t.Fatalf("finished job: %+v", term)
	}
	run := tf.submit(t, serve.JobSpec{Type: serve.TypeWalkPath, Count: 1 << 20, Seed: 32})

	if n := tf.co.mgr.Sweep(time.Now().Add(serve.DefaultRetention + time.Second)); n != 1 {
		t.Fatalf("sweep evicted %d jobs, want 1", n)
	}
	if _, ok := tf.getStatus(t, fin.ID); ok {
		t.Fatal("finished job survived the sweep")
	}
	if st, ok := tf.getStatus(t, run.ID); !ok || st.State.Terminal() {
		t.Fatalf("running job after the sweep: %+v (found %v)", st, ok)
	}
	tf.co.Close()

	co, err := NewCoordinator(CoordinatorConfig{Workers: 1, Journal: openJournal(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	restarted := &testFleet{co: co, coSrv: srv}
	if _, ok := restarted.getStatus(t, fin.ID); ok {
		t.Fatal("an evicted job came back after a journal restart")
	}
	if _, ok := restarted.getStatus(t, run.ID); !ok {
		t.Fatal("the unfinished job was lost across the restart")
	}
}
