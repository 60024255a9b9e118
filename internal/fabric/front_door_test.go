package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"hsas/internal/campaign"
	"hsas/internal/httpjson"
	"hsas/internal/obs"
)

// brokenPipe accepts limit bytes, then fails every write, as a
// connection does once its client has gone. It counts the bytes
// written and the writes refused, and runs onFail at the first refusal.
type brokenPipe struct {
	header  http.Header
	limit   int
	written int
	refused int
	onFail  func()
}

func (b *brokenPipe) Header() http.Header { return b.header }
func (b *brokenPipe) WriteHeader(int)     {}

func (b *brokenPipe) Write(p []byte) (int, error) {
	if len(p) <= b.limit {
		b.limit -= len(p)
		b.written += len(p)
		return len(p), nil
	}
	if b.refused == 0 && b.onFail != nil {
		b.onFail()
	}
	b.refused++
	return 0, errors.New("broken pipe")
}

// TestHandlerStopsOnWriteError cuts the worker's lease and lookup
// streams after their first line: the handler must return and attempt
// no write after the failed one, and the lease must stop its engine,
// so at most the job in flight completes (reaches JobDone) after the
// cut, whether its jobs simulate or are all in the worker's cache.
func TestHandlerStopsOnWriteError(t *testing.T) {
	reg := obs.NewRegistry()
	cache := campaign.NewMemCache()
	w := NewWorker(WorkerConfig{Workers: 1, KernelWorkers: 1, Cache: cache, Obs: &obs.Observer{Metrics: reg}})
	jobsDone := reg.Counter("hsas_campaign_jobs_total", "")
	planted, keys, res := plantedJobs(t, 8)
	for i, k := range keys {
		if err := cache.Put(k, res[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The lease's jobs are not in the cache, so each one simulates.
	fresh := make([]campaign.JobSpec, 6)
	for i := range fresh {
		fresh[i] = tinyJob(int64(101 + i))
	}
	lease, _ := json.Marshal(leaseRequest{Jobs: fresh})
	// Every job of this lease is a hit in the worker's cache (planted
	// job 1 records a trace, which the cache lacks, so it is left out).
	hits := append([]campaign.JobSpec{planted[0]}, planted[2:]...)
	cachedLease, _ := json.Marshal(leaseRequest{Jobs: hits})
	lookup, _ := json.Marshal(lookupRequest{Keys: keys, Trace: make([]bool, len(keys))})

	for _, tc := range []struct {
		name, path string
		body       []byte
		limit      int // fits the first line, not the second
		jobs       int // the lease's jobs, whose completions are counted
	}{
		{"lease", "/v1/lease", lease, 600, len(fresh)},
		{"lease_cached", "/v1/lease", cachedLease, 400, len(hits)},
		{"lookup", "/v1/cache/lookup", lookup, 400, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var doneAtCut int64
			before := jobsDone.Value()
			pipe := &brokenPipe{header: http.Header{}, limit: tc.limit, onFail: func() { doneAtCut = jobsDone.Value() }}
			served := make(chan struct{})
			go func() {
				defer close(served)
				w.Handler().ServeHTTP(pipe, httptest.NewRequest("POST", tc.path, bytes.NewReader(tc.body)))
			}()
			select {
			case <-served:
			case <-time.After(60 * time.Second):
				t.Fatal("handler did not return after the stream broke")
			}
			if pipe.written == 0 || pipe.refused != 1 {
				t.Errorf("handler wrote %d bytes, then attempted %d writes after the stream broke; want a first line, then 1 (the failing one)",
					pipe.written, pipe.refused)
			}
			if after := jobsDone.Value() - doneAtCut; tc.jobs > 0 && (after > 1 || jobsDone.Value()-before >= int64(tc.jobs)) {
				t.Errorf("lease engine completed %d of %d jobs, %d of them after the stream broke; want at most 1 after",
					jobsDone.Value()-before, tc.jobs, after)
			}
		})
	}
}

// FuzzDecodeLeaseRequest drives POST /v1/lease's decoding with
// arbitrary bodies; see checkDecode.
func FuzzDecodeLeaseRequest(f *testing.F) {
	job, err := json.Marshal(tinyJob(1))
	if err != nil {
		f.Fatal(err)
	}
	valid := `{"campaign":"c","jobs":[` + string(job) + `]}`
	for _, body := range []string{valid, valid + "\n", valid + valid, valid + "x", `{"jobs":[]}`, `{"jobs":[{"seed":1,"x":0}]}`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode[leaseRequest](t, body) })
}

// FuzzDecodeLookupRequest drives POST /v1/cache/lookup's decoding with
// arbitrary bodies; see checkDecode.
func FuzzDecodeLookupRequest(f *testing.F) {
	one := `{"keys":["` + mustKey(f, tinyJob(1)) + `"],"trace":[true]}`
	for _, body := range []string{one, one + "\n", one + one, one + "]", `{"keys":[],"trace":[],"since":1}`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode[lookupRequest](t, body) })
}

// checkDecode decodes body into a T through httpjson.Decode with a
// 256-byte limit and holds it to its oracle: the body is accepted
// exactly when it fits the limit, json.Unmarshal accepts it, a decoder
// that disallows unknown fields accepts it and only whitespace follows
// the value; and an accepted body decodes as json.Unmarshal decodes it.
func checkDecode[T any](t *testing.T, body []byte) {
	const limit = 256
	var got, want, strict T
	err := httpjson.Decode(httptest.NewRecorder(), httptest.NewRequest("POST", "/", bytes.NewReader(body)), limit, &got)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	valid := len(body) <= limit && json.Unmarshal(body, &want) == nil && dec.Decode(&strict) == nil &&
		len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) == 0
	switch {
	case err == nil && !valid:
		t.Fatalf("Decode accepted %q", body)
	case err != nil && valid:
		t.Fatalf("Decode rejected %q: %v", body, err)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("Decode(%q) = %+v, json.Unmarshal gives %+v", body, got, want)
	}
}
