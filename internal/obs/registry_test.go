package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentUpdates hammers one counter, gauge and histogram from
// many goroutines and checks the totals are exact (run under -race in
// CI).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, each = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Registration from every goroutine must converge on the same
			// series.
			c := r.Counter("c_total", "test counter")
			g := r.Gauge("g", "test gauge")
			h := r.Histogram("h_seconds", "test histogram", []float64{0.5})
			for i := 0; i < each; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
				h.Observe(0.75)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "").Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	if got := r.Gauge("g", "").Value(); got != workers*each {
		t.Fatalf("gauge = %v, want %d", got, workers*each)
	}
	h := r.Histogram("h_seconds", "", nil)
	if h.Count() != 2*workers*each {
		t.Fatalf("histogram count = %d", h.Count())
	}
	wantSum := float64(workers*each) * (0.25 + 0.75)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestScrapeDuringRegistration scrapes the exposition while other
// goroutines lazily register new series, exercising the snapshot taken
// by WritePrometheus (run under -race in CI; the pre-snapshot code was a
// concurrent map read/write crash).
func TestScrapeDuringRegistration(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Counter("lazy_total", "", L("worker", strconv.Itoa(w)), L("i", strconv.Itoa(i))).Inc()
				r.Histogram("lazy_seconds", "", nil, L("worker", strconv.Itoa(w))).Observe(0.01)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < each; i++ {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := promParse(t, buf.String())
	if got := samples[`lazy_total{i="0",worker="0"}`]; got != 1 {
		t.Fatalf("post-race sample = %v, want 1", got)
	}
}

// TestExpvarPublishCrossRegistry publishes the same expvar name from two
// distinct registries concurrently: exactly one must win and the other
// must degrade to a no-op instead of panicking in expvar.Publish.
func TestExpvarPublishCrossRegistry(t *testing.T) {
	const name = "hsas_test_metrics_cross"
	a, b := NewRegistry(), NewRegistry()
	a.Counter("cross_total", "").Add(1)
	b.Counter("cross_total", "").Add(1)
	var wg sync.WaitGroup
	for _, r := range []*Registry{a, b} {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.PublishExpvar(name)
		}()
	}
	wg.Wait()
	if expvar.Get(name) == nil {
		t.Fatal("neither registry published")
	}
}

// promParse parses text exposition into sample name{labels} -> value,
// skipping comment lines.
func promParse(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("cycles_total", "control cycles").Add(7)
	r.Counter("stage_runs_total", "per stage", L("stage", "isp")).Add(3)
	r.Counter("stage_runs_total", "per stage", L("stage", "render")).Add(4)
	r.Gauge("speed_kmph", "current speed").Set(32.5)
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE cycles_total counter",
		"# TYPE speed_kmph gauge",
		"# TYPE lat_seconds histogram",
		"# HELP cycles_total control cycles",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	samples := promParse(t, text)
	checks := map[string]float64{
		"cycles_total":                  7,
		`stage_runs_total{stage="isp"}`: 3,
		"speed_kmph":                    32.5,
		`lat_seconds_bucket{le="0.01"}`: 1,
		`lat_seconds_bucket{le="0.1"}`:  2,
		`lat_seconds_bucket{le="+Inf"}`: 3,
		"lat_seconds_count":             3,
	}
	for k, want := range checks {
		if got, ok := samples[k]; !ok || math.Abs(got-want) > 1e-9 {
			t.Fatalf("sample %s = %v (present=%v), want %v\n%s", k, got, ok, want, text)
		}
	}
	if math.Abs(samples["lat_seconds_sum"]-5.055) > 1e-9 {
		t.Fatalf("histogram sum = %v", samples["lat_seconds_sum"])
	}
}

// TestWritePrometheusFile: the file dump holds exactly the exposition,
// and an unwritable path is an error, not a silent no-op.
func TestWritePrometheusFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("cycles_total", "control cycles").Add(7)
	var want bytes.Buffer
	if err := r.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.prom")
	if err := r.WritePrometheusFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Fatalf("file holds\n%s\nwant\n%s", got, want.String())
	}
	if err := r.WritePrometheusFile(filepath.Join(path, "under-a-file")); err == nil {
		t.Fatal("dump under a regular file succeeded")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestExpvarPublish(t *testing.T) {
	r := NewRegistry()
	r.Counter("pub_total", "").Add(5)
	r.PublishExpvar("hsas_test_metrics")
	r.PublishExpvar("hsas_test_metrics") // idempotent
	v := expvar.Get("hsas_test_metrics")
	if v == nil {
		t.Fatal("registry not published to expvar")
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar value not JSON: %v", err)
	}
	if snap["pub_total"] != float64(5) {
		t.Fatalf("expvar snapshot = %v", snap)
	}
}

func TestServerServesMetricsAndExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("srv_total", "served").Inc()
	s, err := StartServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(b)
	}
	if body := get("/metrics"); promParse(t, body)["srv_total"] != 1 {
		t.Fatalf("served metrics wrong:\n%s", body)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("expvar endpoint not JSON: %v", err)
	}
}

// TestNilSafety drives every call path through nil receivers; reaching
// the end without panicking is the assertion.
func TestNilSafety(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer enabled")
	}
	o.Logger().Info("discarded")
	var r *Registry = o.Registry()
	r.Counter("x", "").Inc()
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "", nil).Observe(1)
	r.PublishExpvar("nil")
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer = o.Tracer()
	tr.Span("a", "b", 0, tr.Begin(), nil)
	tr.Instant("a", "b", 0, nil)
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	if err := tr.WriteJSONL(io.Discard); err != nil {
		t.Fatal(err)
	}
	var srv *Server
	if srv.Addr() != "" || srv.Close() != nil {
		t.Fatal("nil server misbehaved")
	}
}

// TestServerPprofOption checks /debug/pprof/ is present only when
// WithPprof is passed.
func TestServerPprofOption(t *testing.T) {
	r := NewRegistry()
	status := func(s *Server, path string) int {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	plain, err := StartServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if code := status(plain, "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof exposed without opt-in: %d", code)
	}
	prof, err := StartServer("127.0.0.1:0", r, WithPprof())
	if err != nil {
		t.Fatal(err)
	}
	defer prof.Close()
	if code := status(prof, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof index with WithPprof: %d", code)
	}
	if code := status(prof, "/metrics"); code != http.StatusOK {
		t.Fatalf("metrics broken by pprof option: %d", code)
	}
}
