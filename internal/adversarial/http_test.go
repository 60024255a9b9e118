package adversarial

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hsas/internal/campaign"
	"hsas/internal/httpjson"
)

// passRunner passes every probe without simulating and counts its calls.
// Like the campaign engine, it refuses work once ctx is done.
type passRunner struct{ calls atomic.Int64 }

func (p *passRunner) Run(ctx context.Context, jobs []campaign.JobSpec) ([]*campaign.JobResult, campaign.RunStats, error) {
	p.calls.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, campaign.RunStats{}, err
	}
	out := make([]*campaign.JobResult, len(jobs))
	for i := range out {
		out[i] = &campaign.JobResult{}
	}
	return out, campaign.RunStats{Jobs: len(jobs), Unique: len(jobs), Simulated: len(jobs)}, nil
}

// brokenPipe accepts limit bytes, then fails every write, as a
// connection does once its client has gone. It records how many writes
// were attempted after the first failure and how many runner calls had
// been made by then.
type brokenPipe struct {
	header        http.Header
	limit         int
	runner        *passRunner
	callsAtFail   int64
	writesRefused int
}

func (b *brokenPipe) Header() http.Header { return b.header }
func (b *brokenPipe) WriteHeader(int)     {}

func (b *brokenPipe) Write(p []byte) (int, error) {
	if len(p) <= b.limit {
		b.limit -= len(p)
		return len(p), nil
	}
	if b.writesRefused == 0 {
		b.callsAtFail = b.runner.calls.Load()
	}
	b.writesRefused++
	return 0, errors.New("broken pipe")
}

// TestHandlerStopsOnWriteError cuts the response stream after the first
// cell line of a 21-cell search: the handler must return, attempt no
// write after the failed one and run no further cells.
func TestHandlerStopsOnWriteError(t *testing.T) {
	runner := &passRunner{}
	h := NewHandler(ServerConfig{NewRunner: func() campaign.Runner { return runner }})
	// One cell line is a few hundred bytes; the second does not fit.
	w := &brokenPipe{header: http.Header{}, limit: 600, runner: runner}
	grid := `{"settings":[{"ISP":"S0","ROI":2,"SpeedKmph":30}],"fault":"noise:mag=$mag","tol":0.25}`
	req, err := http.NewRequest("POST", "/v1/adversarial", strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(w, req)
	}()
	select {
	case <-served:
	case <-time.After(30 * time.Second):
		t.Fatal("handler did not return after the stream broke")
	}

	if w.writesRefused != 1 {
		t.Errorf("handler attempted %d writes after the stream broke, want 1 (the failing one)", w.writesRefused)
	}
	// Serial search: the cell in flight when the write failed is done,
	// so at most the next cell's first probe can start before the
	// cancellation reaches it.
	total := runner.calls.Load()
	if w.callsAtFail == 0 || total > w.callsAtFail+1 {
		t.Errorf("runner called %d times, %d of them after the stream broke; want at most 1 after", total, total-w.callsAtFail)
	}
}

// TestHandlerRejectsMalformedGrids: a body that is not exactly one Grid
// is refused with a 400 before any probe runs; a trailing newline is
// fine.
func TestHandlerRejectsMalformedGrids(t *testing.T) {
	const grid = `{"situations":[1],"settings":[{"ISP":"S0","ROI":2,"SpeedKmph":30}],"fault":"noise:mag=$mag","tol":0.5}`
	runner := &passRunner{}
	h := NewHandler(ServerConfig{NewRunner: func() campaign.Runner { return runner }})
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/adversarial", strings.NewReader(body)))
		return rec
	}
	for name, body := range map[string]string{
		"unknown field":               `{"fault":"noise:mag=$mag","budget":3}`,
		"unknown setting field":       `{"settings":[{"ISP":"S0","ROI":2,"SpeedKmph":30,"Gain":2}],"fault":"noise:mag=$mag"}`,
		"unknown degrade field":       `{"fault":"noise:mag=$mag","degrade":{"frobnicate":true}}`,
		"second value":                grid + grid,
		"second value after newline":  grid + "\n" + grid,
		"trailing junk":               grid + "x",
		"trailing junk after newline": grid + "\n}",
	} {
		if rec := post(body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, rec.Code, rec.Body)
		}
	}
	if n := runner.calls.Load(); n != 0 {
		t.Fatalf("rejected grids ran %d probe batches", n)
	}
	if rec := post(grid + "\n"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"done":true`) {
		t.Fatalf("grid with a trailing newline: status %d, body %s", rec.Code, rec.Body)
	}
}

// FuzzDecodeGrid drives POST /v1/adversarial's decoding with arbitrary
// bodies: see checkDecode.
func FuzzDecodeGrid(f *testing.F) {
	const grid = `{"situations":[1],"settings":[{"ISP":"S0","ROI":2,"SpeedKmph":30}],"fault":"noise:mag=$mag","hi":0.6}`
	for _, body := range []string{grid, grid + "\n", grid + grid, grid + "]", `{"fault":"x","degrade":{}}`, `{"nope":1}`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode[Grid](t, body) })
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
