package fabric

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsas/internal/campaign"
	"hsas/internal/lake"
	"hsas/internal/obs"
	"hsas/internal/trace"
)

// validTrace is a two-row trace CSV in WriteCSV's format.
const validTrace = "time_s,s_m,sector,yl_true,yl_meas,det_ok,raw_det_ok,steer,isp,roi,speed_kmph,h_ms,tau_ms,fault,degraded\n" +
	"0.0250,0.200,1,0.10000,0.10000,true,true,0.01000,S0,2,50,25,24.60,,false\n" +
	"0.0500,0.400,1,0.09000,0.09500,true,true,0.00900,S0,2,50,25,24.60,,false\n"

// plantedJobs returns n tiny jobs, job 1 recording a trace, with their
// keys and a distinct made-up result per job. Lookups never simulate,
// so planted results need not be real ones.
func plantedJobs(t testing.TB, n int) ([]campaign.JobSpec, []string, []*campaign.JobResult) {
	t.Helper()
	jobs := tinyJobs(n)
	jobs[1].RecordTrace = true
	keys := make([]string, n)
	res := make([]*campaign.JobResult, n)
	for i, j := range jobs {
		k, err := j.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
		res[i] = &campaign.JobResult{MAE: float64(i) + 0.25, Frames: 100 + i}
	}
	return jobs, keys, res
}

func postLookup(t *testing.T, url string, body string) (*http.Response, []leaseLine) {
	t.Helper()
	resp, err := http.Post(url+"/v1/cache/lookup", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []leaseLine
	dec := json.NewDecoder(resp.Body)
	for resp.StatusCode == http.StatusOK {
		var line leaseLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		lines = append(lines, line)
	}
	return resp, lines
}

// TestWorkerCacheLookupStreamsHits: the bulk lookup streams one line
// per hit and a trailer, treats a trace job without its trace as a
// miss, and counts every read on the serve counters.
func TestWorkerCacheLookupStreamsHits(t *testing.T) {
	reg := obs.NewRegistry()
	cache := campaign.NewMemCache()
	w := NewWorker(WorkerConfig{Cache: cache, Obs: &obs.Observer{Metrics: reg}})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	_, keys, res := plantedJobs(t, 4)
	for i := 0; i < 3; i++ {
		if err := cache.Put(keys[i], res[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cache.PutTrace(keys[1], []byte(validTrace)); err != nil {
		t.Fatal(err)
	}

	// Key 2 is asked for with its trace, which the worker lacks; key 3
	// is not cached at all.
	body, _ := json.Marshal(lookupRequest{Keys: keys, Trace: []bool{false, true, true, false}})
	resp, lines := postLookup(t, srv.URL, string(body))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("lookup = %s %q", resp.Status, resp.Header.Get("Content-Type"))
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 hits + trailer: %+v", len(lines), lines)
	}
	for i, line := range lines[:2] {
		if line.Key != keys[i] || !line.Cached || !reflect.DeepEqual(line.Result, res[i]) {
			t.Fatalf("hit %d = %+v, want key %s result %+v", i, line, keys[i], res[i])
		}
	}
	if lines[0].Trace != nil || string(lines[1].Trace) != validTrace {
		t.Fatalf("traces = %q, %q; want none, then the cached trace", lines[0].Trace, lines[1].Trace)
	}
	if tr := lines[2]; !tr.Done || tr.CacheHits != 2 || tr.Error != "" {
		t.Fatalf("trailer = %+v, want done with 2 hits", tr)
	}
	for name, want := range map[string]int64{
		"hsas_fabric_cache_serve_hits_total":   3,
		"hsas_fabric_cache_serve_misses_total": 1,
		"hsas_fabric_trace_serve_hits_total":   1,
		"hsas_fabric_trace_serve_misses_total": 1,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestWorkerCacheLookupRejectsMalformed: a lookup body the worker can
// not trust is refused whole with a 400, before any cache read; a
// trailing newline is fine.
func TestWorkerCacheLookupRejectsMalformed(t *testing.T) {
	w := NewWorker(WorkerConfig{MaxLeaseBytes: 1 << 10})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	key := strings.Repeat("ab", 32)
	many := make([]string, 20)
	for i := range many {
		many[i] = key
	}
	big, _ := json.Marshal(lookupRequest{Keys: many, Trace: make([]bool, len(many))})
	one := `{"keys":["` + key + `"],"trace":[false]}`
	for _, tc := range []struct{ name, body string }{
		{"bad JSON", `{"keys": [`},
		{"not an object", `["` + key + `"]`},
		{"keys/trace length mismatch", `{"keys":["` + key + `","` + key + `"],"trace":[false]}`},
		{"trace flags missing", `{"keys":["` + key + `"]}`},
		{"no keys", `{"keys":[],"trace":[]}`},
		{"over MaxLeaseBytes", string(big)},
		{"uppercase key", `{"keys":["` + strings.ToUpper(key) + `"],"trace":[false]}`},
		{"short key", `{"keys":["` + key[:63] + `"],"trace":[false]}`},
		{"path traversal", `{"keys":["../../secret"],"trace":[false]}`},
		{"unknown field", `{"keys":["` + key + `"],"trace":[false],"since":0}`},
		{"second value", one + one},
		{"second value after newline", one + "\n" + one},
		{"trailing junk", one + "x"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postLookup(t, srv.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %s, want 400", resp.Status)
			}
		})
	}
	if resp, lines := postLookup(t, srv.URL, one+"\n"); resp.StatusCode != http.StatusOK || len(lines) != 1 || !lines[0].Done {
		t.Fatalf("lookup with a trailing newline = %s %+v, want 200 and a trailer", resp.Status, lines)
	}
}

// TestWorkerCacheRejectsPathTraversal: ServeMux decodes %2F inside a
// wildcard, so a cache key can spell a path. The point lookups must
// refuse anything but a content address rather than read a JSON file
// planted outside the cache directory.
func TestWorkerCacheRejectsPathTraversal(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b", "cache")
	cache, err := campaign.NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	secret, _ := json.Marshal(campaign.JobResult{MAE: 42, Frames: 7})
	for _, d := range []string{root, filepath.Join(root, "a"), filepath.Join(root, "a", "b")} {
		if err := os.WriteFile(filepath.Join(d, "secret.json"), secret, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "secret.trace.csv"), []byte(validTrace), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewWorker(WorkerConfig{Cache: cache}).Handler())
	defer srv.Close()
	for _, key := range []string{"..%2Fsecret", "..%2F..%2Fsecret", "..%2F..%2F..%2Fsecret", "..%2F..%2F..%2F..%2Fsecret"} {
		for _, suffix := range []string{"", "/trace"} {
			resp, err := http.Get(srv.URL + "/v1/cache/" + key + suffix)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("GET /v1/cache/%s%s = %s, want 400", key, suffix, resp.Status)
			}
		}
	}
}

// countingHandler counts the requests a handler receives, by method
// and path.
type countingHandler struct {
	h  http.Handler
	mu sync.Mutex
	n  map[string]int
}

func (c *countingHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	if c.n == nil {
		c.n = map[string]int{}
	}
	c.n[r.Method+" "+r.URL.Path]++
	c.mu.Unlock()
	c.h.ServeHTTP(rw, r)
}

// TestCoordinatorLooksUpOncePerPeer pins the remote tier's traffic:
// one POST /v1/cache/lookup per peer carries every miss, whichever peer
// holds which key, and no point lookups or leases follow.
func TestCoordinatorLooksUpOncePerPeer(t *testing.T) {
	jobs, keys, res := plantedJobs(t, 3)
	var peers []*countingHandler
	var urls []string
	for i := 0; i < 2; i++ {
		cache := campaign.NewMemCache()
		w := NewWorker(WorkerConfig{Cache: cache})
		// Peer 0 holds jobs 0 and 1 (with its trace); peer 1 holds 1
		// and 2, but not job 1's trace.
		for _, k := range []int{i, i + 1} {
			if err := cache.Put(keys[k], res[k]); err != nil {
				t.Fatal(err)
			}
		}
		if i == 0 {
			if err := cache.PutTrace(keys[1], []byte(validTrace)); err != nil {
				t.Fatal(err)
			}
		}
		ch := &countingHandler{h: w.Handler()}
		srv := httptest.NewServer(ch)
		defer srv.Close()
		peers = append(peers, ch)
		urls = append(urls, srv.URL)
	}
	local := campaign.NewMemCache()
	co, err := NewCoordinator(CoordinatorConfig{Workers: urls, Cache: local})
	if err != nil {
		t.Fatal(err)
	}
	got, fs, err := co.RunFabric(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("results = %+v, want the planted ones", got)
	}
	if fs.RemoteHits != 3 || fs.RunStats().Simulated != 0 {
		t.Fatalf("stats = %+v, want 3 remote hits", fs)
	}
	for i, p := range peers {
		if want := map[string]int{"POST /v1/cache/lookup": 1}; !reflect.DeepEqual(p.n, want) {
			t.Errorf("peer %d requests = %v, want %v", i, p.n, want)
		}
	}
	if tr, ok, _ := local.GetTrace(keys[1]); !ok || string(tr) != validTrace {
		t.Fatalf("trace did not read through to the local cache: ok=%v", ok)
	}
}

// corruptLeaseWorker is a fake worker: its lookups find nothing, and
// its leases stream each job's planted result with the given trace.
func corruptLeaseWorker(t *testing.T, res map[string]*campaign.JobResult, traceCSV []byte) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(rw)
		switch r.URL.Path {
		case "/v1/cache/lookup":
			_ = enc.Encode(leaseLine{Done: true})
		case "/v1/lease":
			var req leaseRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			for _, j := range req.Jobs {
				k, _ := j.Key()
				_ = enc.Encode(leaseLine{Key: k, Result: res[k], Trace: traceCSV})
			}
			_ = enc.Encode(leaseLine{Done: true, Simulated: len(req.Jobs)})
		default:
			http.NotFound(rw, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestCoordinatorDropsUnparsableLeasedTrace: a leased trace gets the
// check a peer-served one gets. One that fails to parse is neither
// cached nor put on the lake, and the loss counts as a lake append
// failure; the job's result is still delivered and cached.
func TestCoordinatorDropsUnparsableLeasedTrace(t *testing.T) {
	jobs, keys, res := plantedJobs(t, 2)
	byKey := map[string]*campaign.JobResult{keys[0]: res[0], keys[1]: res[1]}
	for _, tc := range []struct {
		name      string
		trace     string
		wantTrace bool
		wantFails int64
	}{
		{"valid trace", validTrace, true, 0},
		{"corrupt trace", "time_s,s_m\n1,2,3\n", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := corruptLeaseWorker(t, byKey, []byte(tc.trace))
			reg := obs.NewRegistry()
			lw, err := lake.OpenWriter(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer lw.Close()
			local := campaign.NewMemCache()
			co, err := NewCoordinator(CoordinatorConfig{Workers: []string{srv.URL}, Cache: local, Lake: lw,
				Obs: &obs.Observer{Metrics: reg}})
			if err != nil {
				t.Fatal(err)
			}
			got, fs, err := co.RunFabric(context.Background(), jobs[1:])
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || !reflect.DeepEqual(got[0], res[1]) || fs.RemoteSimulated != 1 {
				t.Fatalf("results %+v stats %+v, want the leased result delivered", got, fs)
			}
			if _, ok, _ := local.Get(keys[1]); !ok {
				t.Fatal("leased result not cached")
			}
			if _, ok, _ := local.GetTrace(keys[1]); ok != tc.wantTrace {
				t.Fatalf("trace cached = %v, want %v", ok, tc.wantTrace)
			}
			appendF, _ := campaign.LakeFailureCounters(reg)
			if appendF.Value() != tc.wantFails {
				t.Fatalf("lake append failures = %d, want %d", appendF.Value(), tc.wantFails)
			}
		})
	}
}

// recordingCache is a MemCache that remembers every trace written to
// it, so a test can check what reached the cache.
type recordingCache struct {
	*campaign.MemCache
	mu     sync.Mutex
	traces [][]byte
}

func (c *recordingCache) PutTrace(key string, csv []byte) error {
	c.mu.Lock()
	c.traces = append(c.traces, append([]byte(nil), csv...))
	c.mu.Unlock()
	return c.MemCache.PutTrace(key, csv)
}

// FuzzLookupStream feeds arbitrary bytes to the coordinator as a peer's
// lookup response. RunFabric must not panic, must complete only keys of
// its own campaign, and must cache no trace that fails to parse. The
// peer refuses leases, so whatever the stream leaves unresolved fails
// the run quickly instead of simulating.
func FuzzLookupStream(f *testing.F) {
	jobs, keys, res := plantedJobs(f, 2)
	line := func(l leaseLine) string {
		b, err := json.Marshal(l)
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	done := line(leaseLine{Done: true})
	hit0 := line(leaseLine{Key: keys[0], Result: res[0], Cached: true})
	hit1 := line(leaseLine{Key: keys[1], Result: res[1], Cached: true, Trace: []byte(validTrace)})
	f.Add([]byte(hit0 + hit1 + done))
	f.Add([]byte(hit0 + done))
	f.Add([]byte(line(leaseLine{Key: keys[1], Result: res[1], Trace: []byte("time_s\nx\n")}) + done))
	f.Add([]byte(line(leaseLine{Key: keys[1], Result: res[1]}) + done))
	f.Add([]byte(line(leaseLine{Key: strings.Repeat("f", 64), Result: res[0]}) + done))
	f.Add([]byte(hit0 + hit0 + `{"key":"` + keys[1] + `","result":{"mae":`))
	f.Add([]byte(`{"key":"` + keys[1] + `","result":{},"trace":"` + base64.StdEncoding.EncodeToString([]byte(validTrace)) + `"}` + "\n" + done))
	f.Add([]byte(done + hit0))
	f.Add([]byte("not json\n"))
	f.Add([]byte(""))

	var body atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cache/lookup" {
			http.Error(rw, "leases refused", http.StatusServiceUnavailable)
			return
		}
		rw.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = rw.Write(body.Load().([]byte))
	}))
	defer srv.Close()
	campaignKeys := map[string]bool{keys[0]: true, keys[1]: true}

	f.Fuzz(func(t *testing.T, data []byte) {
		body.Store(data)
		local := &recordingCache{MemCache: campaign.NewMemCache()}
		var completed []string
		co, err := NewCoordinator(CoordinatorConfig{
			Workers: []string{srv.URL}, Cache: local, MaxRetries: 1, RetryBase: time.Microsecond,
			RequestTimeout: 5 * time.Second,
			Hooks: campaign.Hooks{JobDone: func(ev campaign.JobEvent) {
				k, _ := ev.Spec.Key()
				completed = append(completed, k)
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		results, _, _ := co.RunFabric(context.Background(), jobs)
		for _, k := range completed {
			if !campaignKeys[k] {
				t.Fatalf("completed key %s outside the campaign", k)
			}
		}
		if results[1] != nil && len(local.traces) == 0 {
			t.Fatal("record_trace job completed without its trace")
		}
		for _, tr := range local.traces {
			if _, err := trace.ReadCSV(bytes.NewReader(tr)); err != nil {
				t.Fatalf("cached a trace that fails to parse (%v): %q", err, tr)
			}
		}
	})
}
