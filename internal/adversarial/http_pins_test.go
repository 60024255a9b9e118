package adversarial

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

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/http_pins.ndjson from the handler's responses")

// httpPin is what a client sees of one request: the status, the
// headers the API promises and the exact body bytes.
type httpPin struct {
	Name           string `json:"name"`
	Status         int    `json:"status"`
	ContentType    string `json:"content_type"`
	AccelBuffering string `json:"x_accel_buffering,omitempty"`
	Body           string `json:"body"`
}

// pinRequest posts body to base and records the response.
func pinRequest(t *testing.T, base, body string) httpPin {
	t.Helper()
	resp, err := http.Post(base+"/v1/adversarial", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return httpPin{
		Name:           "POST /v1/adversarial " + body,
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

// TestHTTPPins records status, headers and body bytes of POST
// /v1/adversarial for the grids the handler tests send, on a runner
// that passes every probe, and compares them with
// testdata/http_pins.ndjson.
func TestHTTPPins(t *testing.T) {
	srv := httptest.NewServer(NewHandler(ServerConfig{
		NewRunner: func() campaign.Runner { return &passRunner{} },
	}))
	defer srv.Close()
	var pins []httpPin
	for _, body := range []string{
		`{"settings":[{"ISP":"S0","ROI":2,"SpeedKmph":30}],"fault":"noise:mag=$mag","tol":0.25}`,
		`{"situations":[1],"settings":[{"ISP":"S0","ROI":2,"SpeedKmph":30}],` +
			`"width":64,"height":32,"fault":"noise:mag=$mag","hi":0.6,"tol":0.6}`,
		`{"fault":"occlude:frac=0.5"}`,
		`{"fault":"no placeholder"}`,
		`{"nope":1}`,
		`{"fault":`,
	} {
		pins = append(pins, pinRequest(t, srv.URL, body))
	}

	unconfigured := httptest.NewServer(NewHandler(ServerConfig{}))
	defer unconfigured.Close()
	pins = append(pins, pinRequest(t, unconfigured.URL, `{"fault":"noise:mag=$mag"}`))

	checkPins(t, pins)
}
