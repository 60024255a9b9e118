package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hsas/internal/lake"
	"hsas/internal/obs"
)

// tinyGrid is a one-job campaign body (~1/3 s of simulation).
const tinyGrid = `{"situations":[1],"cases":[1],"cameras":[[64,32]]}`

func postCampaign(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func waitState(t *testing.T, ts *httptest.Server, id string, states ...string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range states {
			if st.State == want {
				return st
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %v", id, states)
	return Status{}
}

func TestServerLifecycleAndCacheHits(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(ServerConfig{Workers: 2, QueueSize: 4, Obs: &obs.Observer{Metrics: reg}})
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postCampaign(t, ts, tinyGrid)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %v", resp.StatusCode, body)
	}
	id := body["id"].(string)
	st := waitState(t, ts, id, StateDone)
	if st.Jobs != 1 || st.Done != 1 || st.Simulated != 1 {
		t.Fatalf("first campaign status = %+v", st)
	}

	// Results payload carries the job, its content address and outcome.
	resp2, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var res struct {
		Status
		Results []jobOutcome `json:"results"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || len(res.Results) != 1 ||
		res.Results[0].Result == nil || len(res.Results[0].Key) != 64 {
		t.Fatalf("results = %d %+v", resp2.StatusCode, res)
	}

	// Resubmitting the identical grid costs zero simulations.
	_, body2 := postCampaign(t, ts, tinyGrid)
	st2 := waitState(t, ts, body2["id"].(string), StateDone)
	if st2.CacheHits != 1 || st2.Simulated != 0 {
		t.Fatalf("resubmitted campaign status = %+v, want pure cache hit", st2)
	}

	// The events stream of a finished campaign is one terminal snapshot.
	resp3, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	line, err := bufio.NewReader(resp3.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var ev Status
	if err := json.Unmarshal(line, &ev); err != nil || !terminal(ev.State) {
		t.Fatalf("events line %q err=%v", line, err)
	}

	// The exposition carries both server and engine instrumentation.
	resp4, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	exp, _ := io.ReadAll(resp4.Body)
	for _, want := range []string{
		"hsas_serve_campaigns_accepted_total 2",
		"hsas_campaign_cache_hits_total 1",
		"hsas_serve_queue_depth 0",
	} {
		if !bytes.Contains(exp, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}

	if resp5, err := http.Get(ts.URL + "/v1/campaigns/zzz"); err != nil || resp5.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign lookup = %v %v", resp5.StatusCode, err)
	} else {
		resp5.Body.Close()
	}
}

func TestServerTraceArtifact(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 1})
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postCampaign(t, ts, `{"situations":[1],"cases":[1],"cameras":[[64,32]],"record_trace":true}`)
	id := body["id"].(string)
	waitState(t, ts, id, StateDone)

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/jobs/0/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	csv, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/csv" || len(csv) == 0 {
		t.Fatalf("trace = %d %q (%d bytes)", resp.StatusCode, resp.Header.Get("Content-Type"), len(csv))
	}
	if resp2, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/jobs/9/trace"); err != nil || resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range trace = %v %v", resp2.StatusCode, err)
	} else {
		resp2.Body.Close()
	}
}

// TestServerBackpressure fills the bounded queue without an executor:
// the overflow submission must get 429 + Retry-After, not block or OOM.
func TestServerBackpressure(t *testing.T) {
	s := NewServer(ServerConfig{QueueSize: 1}) // Start deliberately not called
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, body1 := postCampaign(t, ts, tinyGrid)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp1.StatusCode)
	}
	resp2, body2 := postCampaign(t, ts, tinyGrid)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d %v", resp2.StatusCode, body2)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// A queued campaign has no results yet: 409, not 500 or empty JSON.
	resp3, err := http.Get(ts.URL + "/v1/campaigns/" + body1["id"].(string) + "/results")
	if err != nil || resp3.StatusCode != http.StatusConflict {
		t.Fatalf("queued results = %v %v", resp3.StatusCode, err)
	}
	resp3.Body.Close()
}

// TestServerConcurrentSubmissions hammers the submit path from many
// goroutines (run under -race in CI): exactly QueueSize submissions are
// accepted, every other one is rejected with 429, none deadlock.
func TestServerConcurrentSubmissions(t *testing.T) {
	const queueSize, n = 2, 16
	s := NewServer(ServerConfig{QueueSize: queueSize}) // no executor: queue only drains on accept
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tinyGrid))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	wg.Wait()

	accepted, rejected := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if accepted != queueSize || rejected != n-queueSize {
		t.Fatalf("accepted %d rejected %d, want %d/%d", accepted, rejected, queueSize, n-queueSize)
	}
}

func TestServerRejectsBadSubmissions(t *testing.T) {
	s := NewServer(ServerConfig{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"not json":                    "{",
		"unknown field":               `{"situations":[1],"cases":[1],"frobnicate":true}`,
		"unknown setting field":       `{"situations":[1],"settings":[{"ISP":"S0","ROI":2,"SpeedKmph":30,"Gain":2}]}`,
		"unknown degrade field":       `{"situations":[1],"cases":[1],"degrade":{"frobnicate":true}}`,
		"second value":                tinyGrid + tinyGrid,
		"second value after newline":  tinyGrid + "\n" + tinyGrid + "\n",
		"trailing junk":               tinyGrid + "x",
		"trailing junk after newline": tinyGrid + "\n]",
		"empty grid":                  `{}`,
		"bad axis":                    `{"situations":[99],"cases":[1]}`,
	} {
		resp, _ := postCampaign(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if resp, body := postCampaign(t, ts, tinyGrid+"\n"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("grid with a trailing newline: status %d %v, want 202", resp.StatusCode, body)
	}
}

// TestServerDrain pins the SIGTERM path: draining flips /healthz and
// submissions to 503, cancels the running campaign once the drain
// context expires (checkpoint retained), and marks queued campaigns
// canceled instead of running them.
func TestServerDrain(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 1, QueueSize: 4})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A blocker long enough (~20 jobs) to still be running at shutdown.
	seeds := make([]string, 20)
	for i := range seeds {
		seeds[i] = fmt.Sprint(i + 1)
	}
	blocker := `{"situations":[1],"cases":[1],"cameras":[[64,32]],"seeds":[` + strings.Join(seeds, ",") + `]}`
	_, b1 := postCampaign(t, ts, blocker)
	runningID := b1["id"].(string)
	waitState(t, ts, runningID, StateRunning)
	_, b2 := postCampaign(t, ts, tinyGrid)
	queuedID := b2["id"].(string)

	drainCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want deadline exceeded (blocker cannot finish in 50ms)", err)
	}

	if st := waitState(t, ts, runningID, StateCanceled); !strings.Contains(st.Error, "interrupted") {
		t.Fatalf("running campaign after drain = %+v", st)
	}
	if st := waitState(t, ts, queuedID, StateCanceled); st.Error != "server draining" {
		t.Fatalf("queued campaign after drain = %+v", st)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if resp2, _ := postCampaign(t, ts, tinyGrid); resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d", resp2.StatusCode)
	}
}

// TestServerResultsStreamedShape checks the incrementally streamed
// results payload is still one well-formed JSON document with the
// original {status..., "results": [...]} shape for a multi-job
// campaign (element separators are emitted by the streamer, not the
// encoder).
func TestServerResultsStreamedShape(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 2})
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postCampaign(t, ts, `{"situations":[1],"cases":[1,2],"cameras":[[64,32]]}`)
	id := body["id"].(string)
	waitState(t, ts, id, StateDone)

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Status
		Results []jobOutcome `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("streamed payload is not one JSON document: %v\n%s", err, raw)
	}
	if out.ID != id || out.State != StateDone || len(out.Results) != 2 {
		t.Fatalf("payload = %+v", out.Status)
	}
	for i, r := range out.Results {
		if r.Result == nil || len(r.Key) != 64 {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	if json.Valid(raw) != true {
		t.Fatal("payload failed json.Valid")
	}
}

// steppingRunner completes its jobs one at a time, 150 ms apart, so an
// events stream sees every change. Its results are empty.
type steppingRunner struct{ hooks Hooks }

func (r steppingRunner) Run(ctx context.Context, jobs []JobSpec) ([]*JobResult, RunStats, error) {
	for i := range jobs {
		select {
		case <-ctx.Done():
			return nil, RunStats{}, ctx.Err()
		case <-time.After(150 * time.Millisecond):
		}
		r.hooks.JobDone(JobEvent{Index: i, Indices: []int{i}, Spec: &jobs[i], Result: &JobResult{}})
	}
	return make([]*JobResult, len(jobs)), RunStats{Jobs: len(jobs), Unique: len(jobs), Simulated: len(jobs)}, nil
}

// brokenPipe accepts limit bytes, then fails every write, as a
// connection does once its client has gone, and counts the bytes
// written and the writes refused.
type brokenPipe struct {
	header  http.Header
	limit   int
	written int
	refused int
}

func (b *brokenPipe) Header() http.Header { return b.header }
func (b *brokenPipe) WriteHeader(int)     {}

func (b *brokenPipe) Write(p []byte) (int, error) {
	if len(p) <= b.limit {
		b.limit -= len(p)
		b.written += len(p)
		return len(p), nil
	}
	b.refused++
	return 0, errors.New("broken pipe")
}

// TestHandlerStopsOnWriteError cuts each of the server's streams after
// its first line: the handler must return and attempt no write after
// the failed one.
func TestHandlerStopsOnWriteError(t *testing.T) {
	// A running campaign whose status changes four times.
	running := NewServer(ServerConfig{NewRunner: func(_ string, _ Cache, hooks Hooks) Runner {
		return steppingRunner{hooks: hooks}
	}})
	running.Start()
	defer running.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	running.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/campaigns",
		strings.NewReader(`{"situations":[1],"cases":[1],"cameras":[[64,32]],"seeds":[1,2,3,4]}`)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d %s", rec.Code, rec.Body)
	}

	// A finished two-case campaign in the lake: two groups by case.
	const twoCases = `{"situations":[1],"cases":[1,2],"cameras":[[64,32]]}`
	cache := NewMemCache()
	plantGrid(t, cache, twoCases)
	lw, err := lake.OpenWriter(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	analytics := NewServer(ServerConfig{Workers: 1, Cache: cache, Lake: lw})
	analytics.Start()
	defer analytics.Shutdown(context.Background())
	ts := httptest.NewServer(analytics.Handler())
	defer ts.Close()
	_, body := postCampaign(t, ts, twoCases)
	waitState(t, ts, body["id"].(string), StateDone)

	for _, tc := range []struct {
		name    string
		handler http.Handler
		path    string
		limit   int // fits the first line, not the second
	}{
		{"events", running.Handler(), "/v1/campaigns/c000001/events", 100},
		{"analytics query", analytics.Handler(), "/v1/analytics/query?group_by=case", 700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &brokenPipe{header: http.Header{}, limit: tc.limit}
			served := make(chan struct{})
			go func() {
				defer close(served)
				tc.handler.ServeHTTP(w, httptest.NewRequest("GET", tc.path, nil))
			}()
			select {
			case <-served:
			case <-time.After(30 * time.Second):
				t.Fatal("handler did not return after the stream broke")
			}
			if w.written == 0 || w.refused != 1 {
				t.Errorf("handler wrote %d bytes, then attempted %d writes after the stream broke; want a first line, then 1 (the failing one)",
					w.written, w.refused)
			}
		})
	}
}
