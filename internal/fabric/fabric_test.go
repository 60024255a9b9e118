package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hsas/internal/camera"
	"hsas/internal/campaign"
	"hsas/internal/knobs"
	"hsas/internal/lake"
	"hsas/internal/obs"
	"hsas/internal/world"
)

// tinyJob is a fast (~1/3 s) closed-loop job; seeds vary the content
// address so each seed is one unique simulation.
func tinyJob(seed int64) campaign.JobSpec {
	s := world.PaperSituations[0]
	return campaign.JobSpec{
		Situation:        &s,
		Camera:           camera.Scaled(64, 32),
		Fixed:            &knobs.Setting{ISP: "S0", ROI: 2, SpeedKmph: knobs.Speeds[0]},
		FixedClassifiers: 3,
		Seed:             seed,
	}
}

func tinyJobs(n int) []campaign.JobSpec {
	jobs := make([]campaign.JobSpec, n)
	for i := range jobs {
		jobs[i] = tinyJob(int64(i + 1))
	}
	return jobs
}

// stripWall zeroes the informational wall-time field so results can be
// compared across runs (everything else is bit-deterministic).
func stripWall(rs []*campaign.JobResult) []campaign.JobResult {
	out := make([]campaign.JobResult, len(rs))
	for i, r := range rs {
		if r == nil {
			continue
		}
		out[i] = *r
		out[i].WallMS = 0
	}
	return out
}

// newTestWorker serves a two-worker Worker and returns its local cache.
func newTestWorker(t *testing.T) (*campaign.MemCache, *httptest.Server) {
	t.Helper()
	cache := campaign.NewMemCache()
	srv := httptest.NewServer(NewWorker(WorkerConfig{Workers: 2, Cache: cache}).Handler())
	t.Cleanup(srv.Close)
	return cache, srv
}

func TestWorkerLeaseStreamsResultsAndTrailer(t *testing.T) {
	_, srv := newTestWorker(t)
	jobs := tinyJobs(2)

	post := func() (lines []leaseLine) {
		body, err := json.Marshal(leaseRequest{Campaign: "lease-test", Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lease status = %s", resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type = %q", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var line leaseLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			lines = append(lines, line)
		}
		return lines
	}

	lines := post()
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 results + trailer", len(lines))
	}
	trailer := lines[len(lines)-1]
	if !trailer.Done || trailer.Error != "" || trailer.Simulated != 2 || trailer.CacheHits != 0 {
		t.Fatalf("trailer = %+v, want done, 2 simulated", trailer)
	}
	for _, line := range lines[:2] {
		if line.Key == "" || line.Result == nil || line.Cached {
			t.Fatalf("result line = %+v, want key+result, not cached", line)
		}
	}

	// The same batch again must be served from the worker's cache:
	// zero new simulations, every line cached.
	lines = post()
	trailer = lines[len(lines)-1]
	if trailer.Simulated != 0 || trailer.CacheHits != 2 {
		t.Fatalf("resubmit trailer = %+v, want 0 simulated / 2 cache hits", trailer)
	}
	for _, line := range lines[:2] {
		if !line.Cached {
			t.Fatalf("resubmit line not cached: %+v", line)
		}
	}
}

// TestWorkerLeaseRejectsEmptyAndMalformed: a lease body that is not
// exactly one leaseRequest is refused whole with a 400 and runs no job;
// a trailing newline is fine.
func TestWorkerLeaseRejectsEmptyAndMalformed(t *testing.T) {
	cache, srv := newTestWorker(t)
	body, err := json.Marshal(leaseRequest{Jobs: []campaign.JobSpec{tinyJob(1)}})
	if err != nil {
		t.Fatal(err)
	}
	valid := string(body)
	job, _ := json.Marshal(tinyJob(1))
	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v1/lease", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, body := range []string{
		`{"jobs":[]}`,
		`{not json`,
		`{"jobs":[` + string(job) + `],"priority":1}`,
		`{"jobs":[` + strings.Replace(string(job), `{`, `{"priority":1,`, 1) + `]}`,
		valid + valid,
		valid + "\n" + valid,
		valid + "x",
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("lease(%q) status = %d, want 400", body, code)
		}
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("rejected leases ran %d jobs", n)
	}
	if err := cache.Put(mustKey(t, tinyJob(1)), &campaign.JobResult{Frames: 1}); err != nil {
		t.Fatal(err)
	}
	if code := post(valid + "\n"); code != http.StatusOK {
		t.Fatalf("lease with a trailing newline: status %d, want 200", code)
	}
}

func mustKey(t testing.TB, j campaign.JobSpec) string {
	t.Helper()
	k, err := j.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestWorkerFederatedCacheEndpoints(t *testing.T) {
	cache, srv := newTestWorker(t)

	// Miss first.
	resp, err := http.Get(srv.URL + "/v1/cache/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("miss status = %s, want 404", resp.Status)
	}

	// Simulate one job through a lease, then read it back through the
	// federated endpoint and compare with the worker's own cache.
	job := tinyJob(1)
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(leaseRequest{Jobs: []campaign.JobSpec{job}})
	lr, err := http.Post(srv.URL+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = bufio.NewReader(lr.Body).WriteTo(bytes.NewBuffer(nil))
	lr.Body.Close()

	resp, err = http.Get(srv.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hit status = %s, want 200", resp.Status)
	}
	var got campaign.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want, ok, err := cache.Get(key)
	if err != nil || !ok {
		t.Fatalf("worker cache missing %s: ok=%v err=%v", key, ok, err)
	}
	if !reflect.DeepEqual(got, *want) {
		t.Fatalf("federated result differs from cache:\n got %+v\nwant %+v", got, *want)
	}

	// Trace endpoint: 404 for a no-trace job.
	resp, err = http.Get(srv.URL + "/v1/cache/" + key + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace status = %s, want 404 (job records no trace)", resp.Status)
	}
}

// TestCoordinatorWorkerKillBitIdentical is the tentpole e2e: a
// coordinator drives three in-process workers, one worker is killed
// mid-campaign, and the merged results must still be bit-identical to
// a single-node Engine.Run. A resubmit must then be 100% local cache
// hits with zero simulations anywhere.
func TestCoordinatorWorkerKillBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second e2e")
	}
	const n = 6
	jobs := tinyJobs(n)
	jobs[0].RecordTrace = true // exercise the trace path end to end

	// Reference: single-node engine with its own private cache.
	eng := &campaign.Engine{Workers: 2, Cache: campaign.NewMemCache()}
	wantRes, wantStats, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.Simulated != n {
		t.Fatalf("reference simulated %d, want %d", wantStats.Simulated, n)
	}

	var workers []*httptest.Server
	for i := 0; i < 3; i++ {
		w := NewWorker(WorkerConfig{Workers: 1})
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		workers = append(workers, srv)
	}

	cache, err := campaign.NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var kill sync.Once
	cfg := CoordinatorConfig{
		Workers:    []string{workers[0].URL, workers[1].URL, workers[2].URL},
		Cache:      cache,
		BatchSize:  1, // keep leases flowing so the kill lands mid-campaign
		LeaseTTL:   20 * time.Second,
		MaxRetries: 1,
		RetryBase:  time.Millisecond,
		StealAfter: 10 * time.Second,
		Hooks: campaign.Hooks{JobDone: func(ev campaign.JobEvent) {
			// First completion: kill worker 0, dropping any lease it
			// holds mid-stream.
			kill.Do(func() {
				workers[0].CloseClientConnections()
				workers[0].Close()
			})
		}},
	}
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, fs, err := co.RunFabric(context.Background(), jobs)
	if err != nil {
		t.Fatalf("fabric run with killed worker: %v (stats %+v)", err, fs)
	}
	if !reflect.DeepEqual(stripWall(gotRes), stripWall(wantRes)) {
		t.Fatalf("fabric results differ from single-node engine\nstats %+v", fs)
	}
	rs := fs.RunStats()
	if rs.CacheHits+rs.Simulated != n {
		t.Fatalf("stats don't cover all jobs: %+v", fs)
	}
	t.Logf("kill run stats: %+v", fs)

	// Resubmit: every job is now in the coordinator's local cache —
	// no lease, no probe, no simulation anywhere in the fleet.
	gotRes2, fs2, err := co.RunFabric(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.LocalHits != n || fs2.RunStats().Simulated != 0 ||
		fs2.RemoteHits != 0 || fs2.WorkerCacheHits != 0 {
		t.Fatalf("resubmit stats = %+v, want %d pure local hits", fs2, n)
	}
	if !reflect.DeepEqual(stripWall(gotRes2), stripWall(wantRes)) {
		t.Fatal("resubmit results differ")
	}

	// The record_trace job's trace must have federated back into the
	// coordinator's local cache.
	key, err := jobs[0].Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cache.GetTrace(key); !ok {
		t.Fatal("record_trace job's trace did not reach the coordinator cache")
	}
}

// TestCoordinatorDeadWorkerRequeues verifies that jobs leased to an
// unreachable worker re-queue onto the survivors and the worker is
// eventually abandoned.
func TestCoordinatorDeadWorkerRequeues(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second e2e")
	}
	_, alive := newTestWorker(t)
	reg := obs.NewRegistry()
	co, err := NewCoordinator(CoordinatorConfig{
		// 127.0.0.1:1 refuses connections immediately.
		Workers:    []string{"http://127.0.0.1:1", alive.URL},
		BatchSize:  1,
		MaxRetries: 2,
		RetryBase:  time.Millisecond,
		Obs:        &obs.Observer{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := tinyJobs(3)
	res, fs, err := co.RunFabric(context.Background(), jobs)
	if err != nil {
		t.Fatalf("run: %v (stats %+v)", err, fs)
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("result %d missing", i)
		}
	}
	if fs.RemoteSimulated != 3 {
		t.Fatalf("stats = %+v, want 3 remote simulated", fs)
	}
	if fs.DeadWorkers != 1 {
		t.Fatalf("stats = %+v, want the unreachable worker abandoned", fs)
	}
	if fs.Requeued == 0 || fs.Retries == 0 {
		t.Fatalf("stats = %+v, want requeues and retries > 0", fs)
	}

	// The run's story must also be on the metrics registry: a dead
	// worker, the requeues, and all three jobs attributed to the
	// surviving worker's per-worker series.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"hsas_fabric_dead_workers_total 1",
		`hsas_fabric_worker_jobs_total{worker="` + alive.URL + `"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "hsas_fabric_requeues_total") ||
		!strings.Contains(text, "hsas_fabric_lease_seconds_count") {
		t.Fatalf("metrics exposition missing requeue/lease series:\n%s", text)
	}
}

// TestCoordinatorFederatedCacheReadThrough verifies the remote cache
// tier: results already cached on a peer are fetched, fill the local
// cache, and nothing simulates.
func TestCoordinatorFederatedCacheReadThrough(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second e2e")
	}
	jobs := tinyJobs(2)
	jobs[1].RecordTrace = true

	// Warm a worker's local cache by leasing the jobs through it once.
	peer, srv := newTestWorker(t)
	warm, err := NewCoordinator(CoordinatorConfig{Workers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if _, fs, err := warm.RunFabric(context.Background(), jobs); err != nil || fs.RemoteSimulated != 2 {
		t.Fatalf("warm run: err=%v stats=%+v", err, fs)
	}

	// A fresh coordinator with a cold local cache must resolve both
	// jobs through POST /v1/cache/lookup — zero leases, zero sims.
	cold := campaign.NewMemCache()
	co, err := NewCoordinator(CoordinatorConfig{Workers: []string{srv.URL}, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	res, fs, err := co.RunFabric(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if fs.RemoteHits != 2 || fs.RemoteSimulated != 0 || fs.WorkerCacheHits != 0 {
		t.Fatalf("stats = %+v, want 2 remote hits, 0 simulations", fs)
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("result %d missing", i)
		}
	}
	// Read-through fill: both results (and the trace) are local now.
	if cold.Len() != 2 {
		t.Fatalf("local cache has %d results, want 2 (fill-on-miss)", cold.Len())
	}
	key, _ := jobs[1].Key()
	gotT, ok, _ := cold.GetTrace(key)
	if !ok {
		t.Fatal("trace did not read through to the local cache")
	}
	wantT, ok, _ := peer.GetTrace(key)
	if !ok || !bytes.Equal(gotT, wantT) {
		t.Fatal("read-through trace differs from the peer's copy")
	}
}

// TestCoordinatorStealsFromHungWorker pins work stealing: one "worker"
// accepts a lease and then hangs without streaming; an idle real
// worker must steal the job and finish the campaign.
func TestCoordinatorStealsFromHungWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second e2e")
	}
	hung := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/lease" {
			http.NotFound(rw, r)
			return
		}
		rw.Header().Set("Content-Type", "application/x-ndjson")
		rw.WriteHeader(http.StatusOK)
		rw.(http.Flusher).Flush()
		<-r.Context().Done() // stream nothing until the watchdog fires
	}))
	defer hung.Close()
	_, alive := newTestWorker(t)

	co, err := NewCoordinator(CoordinatorConfig{
		Workers:   []string{hung.URL, alive.URL},
		BatchSize: 1,
		// Generous TTL: a -race simulation can take several seconds,
		// and the hung lease is torn down on completion regardless.
		LeaseTTL:   60 * time.Second,
		StealAfter: 100 * time.Millisecond,
		MaxRetries: 1,
		RetryBase:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := tinyJobs(2)
	res, fs, err := co.RunFabric(context.Background(), jobs)
	if err != nil {
		t.Fatalf("run: %v (stats %+v)", err, fs)
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("result %d missing", i)
		}
	}
	if fs.Stolen == 0 {
		t.Fatalf("stats = %+v, want at least one steal from the hung worker", fs)
	}
}

func TestNewCoordinatorValidates(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorConfig{}); err == nil {
		t.Fatal("no workers: want error")
	}
	for _, bad := range []string{"", "not a url", "/just/a/path", "host.only"} {
		if _, err := NewCoordinator(CoordinatorConfig{Workers: []string{bad}}); err == nil {
			t.Fatalf("worker URL %q: want error", bad)
		}
	}
	if _, err := NewCoordinator(CoordinatorConfig{Workers: []string{"http://localhost:1"}}); err != nil {
		t.Fatalf("valid URL rejected: %v", err)
	}
}

func TestBackoffIsBoundedAndDeterministic(t *testing.T) {
	base := 250 * time.Millisecond
	for attempt := 1; attempt <= 20; attempt++ {
		d1 := backoff(base, attempt, "http://w1:1")
		d2 := backoff(base, attempt, "http://w1:1")
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d1, d2)
		}
		if d1 <= 0 || d1 > 45*time.Second {
			t.Fatalf("attempt %d: backoff %v out of bounds", attempt, d1)
		}
	}
	if backoff(base, 3, "http://w1:1") == backoff(base, 3, "http://w2:1") {
		t.Log("note: two workers share a jitter bucket (allowed, just unlikely)")
	}
}

// TestCoordinatorLocalFallback: with every worker gone, LocalFallback
// simulates the campaign on the local pool, bit-identical to
// Engine.Run, reporting each unique job once and projecting the traced
// job's trace onto the lake. Without LocalFallback the run fails with
// the transport error.
func TestCoordinatorLocalFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second e2e")
	}
	jobs := []campaign.JobSpec{tinyJob(1), tinyJob(2), tinyJob(1)}
	jobs[1].RecordTrace = true
	want, _, err := (&campaign.Engine{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	run := func(fallback bool, lw *lake.Writer) ([]*campaign.JobResult, FabricStats, int, error) {
		done := 0
		co, err := NewCoordinator(CoordinatorConfig{
			Workers: []string{dead.URL}, Lake: lw, LocalFallback: fallback, LocalWorkers: 1,
			MaxRetries: 1, RetryBase: time.Millisecond,
			Hooks: campaign.Hooks{JobDone: func(campaign.JobEvent) { done++ }},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, fs, err := co.RunFabric(context.Background(), jobs)
		return res, fs, done, err
	}

	dir := t.TempDir()
	lw, err := lake.OpenWriter(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, fs, done, err := run(true, lw)
	if err != nil {
		t.Fatalf("fallback run: %v (stats %+v)", err, fs)
	}
	if !reflect.DeepEqual(stripWall(got), stripWall(want)) {
		t.Fatal("fallback results differ from Engine.Run")
	}
	if fs.FallbackSimulated != 2 || fs.Unique != 2 || done != 2 {
		t.Fatalf("stats %+v, JobDone fired %d times; want 2 unique jobs, each simulated and reported once", fs, done)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	sum, _, err := lake.SummarizeTraces(dir, "adhoc")
	if err != nil || sum.Rows != int64(want[1].Frames) {
		t.Fatalf("lake trace rows = %d (err %v), want one per frame of the traced job (%d)", sum.Rows, err, want[1].Frames)
	}

	_, _, _, err = run(false, nil)
	if err == nil || !strings.Contains(err.Error(), "unresolved") || !strings.Contains(err.Error(), dead.URL) {
		t.Fatalf("run without fallback: err = %v, want the worker's transport error", err)
	}
}
