package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsas/internal/campaign"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/http_pins.ndjson from the handlers' responses")

// httpPin is what a client sees of one request: the status, the
// headers the API promises and the exact body bytes.
type httpPin struct {
	Name           string `json:"name"`
	Status         int    `json:"status"`
	ContentType    string `json:"content_type"`
	AccelBuffering string `json:"x_accel_buffering,omitempty"`
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
	name := method + " " + path
	if len(body) > 200 {
		name += " (" + body[:200] + "...)"
	} else if body != "" {
		name += " " + body
	}
	return httpPin{
		Name:           name,
		Status:         resp.StatusCode,
		ContentType:    resp.Header.Get("Content-Type"),
		AccelBuffering: resp.Header.Get("X-Accel-Buffering"),
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

// TestHTTPPins records status, headers and body bytes of every worker
// endpoint for the payloads the worker tests send, against a cache that
// holds planted results, and compares them with
// testdata/http_pins.ndjson. Every lease job is a cache hit, so nothing
// simulates and the streams are deterministic.
func TestHTTPPins(t *testing.T) {
	cache := campaign.NewMemCache()
	w := NewWorker(WorkerConfig{Workers: 1, MaxLeaseBytes: 1 << 12, Cache: cache})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	jobs, keys, res := plantedJobs(t, 4)
	for i := 0; i < 3; i++ {
		if err := cache.Put(keys[i], res[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cache.PutTrace(keys[1], []byte(validTrace)); err != nil {
		t.Fatal(err)
	}

	var pins []httpPin
	pin := func(method, path, body string) {
		pins = append(pins, pinRequest(t, srv.URL, method, path, body))
	}
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	pin("POST", "/v1/lease", marshal(leaseRequest{Campaign: "lease-test", Jobs: jobs[:3]}))
	pin("POST", "/v1/lease", marshal(leaseRequest{Jobs: jobs[:1]}))
	for _, body := range []string{marshal(leaseRequest{Jobs: tinyJobs(40)}), `{"jobs":[]}`, `{not json`} {
		pin("POST", "/v1/lease", body)
	}

	key := strings.Repeat("ab", 32)
	many := make([]string, 80)
	for i := range many {
		many[i] = key
	}
	for _, body := range []string{
		marshal(lookupRequest{Keys: keys, Trace: []bool{false, true, true, false}}),
		marshal(lookupRequest{Keys: keys[3:], Trace: []bool{false}}),
		`{"keys": [`,
		`["` + key + `"]`,
		`{"keys":["` + key + `","` + key + `"],"trace":[false]}`,
		`{"keys":["` + key + `"]}`,
		`{"keys":[],"trace":[]}`,
		marshal(lookupRequest{Keys: many, Trace: make([]bool, len(many))}),
		`{"keys":["` + strings.ToUpper(key) + `"],"trace":[false]}`,
		`{"keys":["` + key[:63] + `"],"trace":[false]}`,
		`{"keys":["../../secret"],"trace":[false]}`,
	} {
		pin("POST", "/v1/cache/lookup", body)
	}

	for _, k := range []string{keys[0], keys[1], keys[3], strings.Repeat("0", 64), "..%2Fsecret", strings.ToUpper(keys[0])} {
		pin("GET", "/v1/cache/"+k, "")
		pin("GET", "/v1/cache/"+k+"/trace", "")
	}
	pin("GET", "/healthz", "")

	checkPins(t, pins)
}
