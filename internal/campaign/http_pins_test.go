package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsas/internal/lake"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/http_pins.ndjson from the handlers' responses")

// httpPin is what a client sees of one request: the status, the
// headers the API promises and the exact body bytes.
type httpPin struct {
	Name           string `json:"name"`
	Status         int    `json:"status"`
	ContentType    string `json:"content_type"`
	AccelBuffering string `json:"x_accel_buffering,omitempty"`
	RetryAfter     string `json:"retry_after,omitempty"`
	Body           string `json:"body"`
}

// pinRequest sends one request to base and records the response.
func pinRequest(t *testing.T, base, method, path, body string) httpPin {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return httpPin{
		Name:           method + " " + path + " " + body,
		Status:         resp.StatusCode,
		ContentType:    resp.Header.Get("Content-Type"),
		AccelBuffering: resp.Header.Get("X-Accel-Buffering"),
		RetryAfter:     resp.Header.Get("Retry-After"),
		Body:           string(raw),
	}
}

// checkPins compares got with testdata/http_pins.ndjson, one pin per
// line, or rewrites the file under -update-pins.
func checkPins(t *testing.T, got []httpPin) {
	t.Helper()
	path := filepath.Join("testdata", "http_pins.ndjson")
	if *updatePins {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		for _, p := range got {
			if err := enc.Encode(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []httpPin
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var p httpPin
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recorded %d responses, %s pins %d", len(got), path, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("response %d differs from its pin:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// pinTrace is a two-row trace CSV in WriteCSV's format.
const pinTrace = "time_s,s_m,sector,yl_true,yl_meas,det_ok,raw_det_ok,steer,isp,roi,speed_kmph,h_ms,tau_ms,fault,degraded\n" +
	"0.0250,0.200,1,0.10000,0.10000,true,true,0.01000,S0,2,50,25,24.60,,false\n" +
	"0.0500,0.400,1,0.09000,0.09500,true,true,0.00900,S0,2,50,25,24.60,,false\n"

// plantGrid fills cache with a made-up result (and, for record_trace
// grids, pinTrace) for every job of the grid, so the server answers
// from the cache and every response is deterministic.
func plantGrid(t *testing.T, cache Cache, body string) {
	t.Helper()
	var g Grid
	if err := json.Unmarshal([]byte(body), &g); err != nil {
		t.Fatal(err)
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		key, err := jobs[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		res := &JobResult{MAE: 0.125 + float64(i), CompletedS: 120.5, Frames: 480 + i, DetectFails: i,
			SectorMAE: []float64{0.125, 0.25}, SectorN: []int{240, 240}}
		if err := cache.Put(key, res); err != nil {
			t.Fatal(err)
		}
		if jobs[i].RecordTrace {
			if err := cache.PutTrace(key, []byte(pinTrace)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestHTTPPins records status, headers and body bytes of every campaign
// endpoint for the payloads the server tests send, against a cache that
// already holds every job, and compares them with
// testdata/http_pins.ndjson.
func TestHTTPPins(t *testing.T) {
	const (
		traceGrid = `{"situations":[1],"cases":[1],"cameras":[[64,32]],"record_trace":true}`
		twoGrid   = `{"situations":[1],"cases":[1,2],"cameras":[[64,32]]}`
	)
	cache := NewMemCache()
	for _, g := range []string{tinyGrid, traceGrid, twoGrid} {
		plantGrid(t, cache, g)
	}
	lw, err := lake.OpenWriter(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ServerConfig{Workers: 1, Cache: cache, Lake: lw})
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var pins []httpPin
	pin := func(method, path, body string) {
		pins = append(pins, pinRequest(t, ts.URL, method, path, body))
	}
	for i, g := range []string{tinyGrid, traceGrid, twoGrid} {
		pin("POST", "/v1/campaigns", g)
		waitState(t, ts, fmt.Sprintf("c%06d", i+1), StateDone)
	}
	for _, id := range []string{"c000001", "c000002", "c000003", "zzz"} {
		for _, suffix := range []string{"", "/events", "/results", "/jobs/0/trace"} {
			pin("GET", "/v1/campaigns/"+id+suffix, "")
		}
	}
	pin("GET", "/v1/campaigns/c000002/jobs/9/trace", "")
	pin("GET", "/v1/campaigns/c000002/jobs/x/trace", "")
	pin("GET", "/v1/campaigns", "")
	for _, body := range []string{"{", `{"situations":[1],"cases":[1],"frobnicate":true}`, `{}`, `{"situations":[99],"cases":[1]}`} {
		pin("POST", "/v1/campaigns", body)
	}
	for _, q := range []string{
		"summary", "summary?campaign=c000001", "summary?campaign=c000002",
		"query?group_by=situation,case&campaign=c000001", "query?group_by=situation", "query?dedup=1",
		"query?group_by=nope", "query?dedup=maybe",
	} {
		pin("GET", "/v1/analytics/"+q, "")
	}
	pin("GET", "/healthz", "")

	// No lake: the analytics endpoints answer 404.
	plain := httptest.NewServer(NewServer(ServerConfig{}).Handler())
	defer plain.Close()
	for _, path := range []string{"/v1/analytics/summary", "/v1/analytics/query"} {
		pins = append(pins, pinRequest(t, plain.URL, "GET", path, ""))
	}

	// No executor and a one-slot queue: the second submission is
	// refused, and the queued campaign has no results yet.
	full := httptest.NewServer(NewServer(ServerConfig{QueueSize: 1}).Handler())
	defer full.Close()
	for _, req := range [][3]string{
		{"POST", "/v1/campaigns", tinyGrid},
		{"POST", "/v1/campaigns", tinyGrid},
		{"GET", "/v1/campaigns/c000001/results", ""},
		{"GET", "/v1/campaigns/c000001", ""},
	} {
		pins = append(pins, pinRequest(t, full.URL, req[0], req[1], req[2]))
	}

	// Draining: health and submissions answer 503.
	drained := NewServer(ServerConfig{})
	drained.Start()
	if err := drained.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	dts := httptest.NewServer(drained.Handler())
	defer dts.Close()
	pins = append(pins, pinRequest(t, dts.URL, "GET", "/healthz", ""))
	pins = append(pins, pinRequest(t, dts.URL, "POST", "/v1/campaigns", tinyGrid))

	checkPins(t, pins)
}
