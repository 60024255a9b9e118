package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/knobs"
	"hsas/internal/obs"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// TestObservedRunSpansAndMetrics is the observability acceptance test: a
// Case 4 nine-sector run with an Observer attached must emit one span
// per pipeline stage per control cycle in valid Chrome trace-event JSON,
// and serve Prometheus text exposition with cycle counters, per-stage
// latency histograms and detection-failure/reconfiguration counters. It
// runs once with wrapped oracles, which count their calls and get whole
// frames captured first, and once with plain oracles, which classify
// before capture: in both, each stage span lies inside its cycle span,
// the stages do not overlap, and they run in their path's order.
func TestObservedRunSpansAndMetrics(t *testing.T) {
	var calls [3]int
	sens := OracleSensors()
	wrapped := Sensors{Road: countingSensor{sens.Road, &calls[0]},
		Lane: countingSensor{sens.Lane, &calls[1]}, Scene: countingSensor{sens.Scene, &calls[2]}}
	for _, run := range []struct {
		name  string
		sens  Sensors
		order []string
	}{
		{"wrapped", wrapped, []string{"render", "isp", "classify", "detect", "control"}},
		{"plain", sens, []string{"classify", "render", "isp", "detect", "control"}},
	} {
		t.Run(run.name, func(t *testing.T) {
			checkObservedRun(t, run.sens, &calls, run.order)
		})
	}
}

// checkObservedRun runs the observed Case 4 slice with sens, whose
// classifiers the plain and wrapped runs invoke calls times, and checks
// its spans, metrics and logs; order is the order of its stages.
func checkObservedRun(t *testing.T, sens Sensors, calls *[3]int, order []string) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	var logBuf bytes.Buffer
	o := &obs.Observer{Log: obs.NewLogger(&logBuf, slog.LevelInfo), Metrics: reg, Trace: tr}
	res, err := Run(Config{
		Track:    world.NineSectorTrack(),
		Camera:   camera.Scaled(128, 64),
		Case:     knobs.Case4,
		Seed:     1,
		MaxTimeS: 12, // bounded slice of the track: plenty of cycles
		Sens:     sens,
		Obs:      o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames < 50 {
		t.Fatalf("too few frames for a meaningful check: %d", res.Frames)
	}

	// ---- Chrome trace-event JSON ----
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	type event struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Phase string         `json:"ph"`
		TS    int64          `json:"ts"`
		Dur   int64          `json:"dur"`
		Args  map[string]any `json:"args"`
	}
	var decoded struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace not valid Chrome trace JSON: %v", err)
	}
	byName := map[string]int{}
	for _, e := range decoded.TraceEvents {
		byName[e.Name]++
	}
	// One span per pipeline stage per control cycle, plus the enclosing
	// cycle span and the physics between captures; one per invoked
	// classifier.
	want := map[string]int{"classify.road": calls[0], "classify.lane": calls[1], "classify.scene": calls[2]}
	for _, stage := range []string{"render", "isp", "classify", "detect", "control", "physics", "cycle"} {
		want[stage] = res.Frames
	}
	for stage, n := range want {
		if byName[stage] != n {
			t.Fatalf("stage %q spans = %d, want %d\ncounts: %v", stage, byName[stage], n, byName)
		}
	}
	if calls[0] == 0 || calls[1] == 0 || calls[2] == 0 {
		t.Fatalf("case 4 left a classifier uninvoked: %v", calls)
	}
	// Classifier spans nest inside the classify span of their cycle,
	// which is recorded after them, and the five stage spans, recorded
	// before their cycle span, lie inside it one after another in the
	// path's order (1 µs slack for rounding each bound).
	var open []int
	stages := map[string]event{}
	for i, e := range decoded.TraceEvents {
		switch e.Name {
		case "classify.road", "classify.lane", "classify.scene":
			open = append(open, i)
		case "render", "isp", "classify", "detect", "control":
			stages[e.Name] = e
			if e.Name != "classify" {
				break
			}
			for _, j := range open {
				c := decoded.TraceEvents[j]
				if c.TS < e.TS-1 || c.TS+c.Dur > e.TS+e.Dur+1 {
					t.Fatalf("%s span [%d, +%d] outside classify [%d, +%d]", c.Name, c.TS, c.Dur, e.TS, e.Dur)
				}
			}
			open = open[:0]
		case "cycle":
			if len(stages) == 0 {
				continue // a dropped cycle
			}
			if len(stages) != len(order) {
				t.Fatalf("cycle at %d µs holds %d stage spans, want %d", e.TS, len(stages), len(order))
			}
			end, before := e.TS, "the cycle's start"
			for _, name := range order {
				st := stages[name]
				if st.TS < end-1 || st.TS+st.Dur > e.TS+e.Dur+1 {
					t.Fatalf("cycle [%d, +%d]: %s span [%d, +%d] starts before %s (%d) or leaves the cycle",
						e.TS, e.Dur, name, st.TS, st.Dur, before, end)
				}
				end, before = st.TS+st.Dur, name+"'s end"
			}
			clear(stages)
		}
	}
	// The delayed actuation fires once per capture; the run may end with
	// one command still pending.
	if byName["actuate"] < res.Frames-1 {
		t.Fatalf("actuate events = %d for %d frames", byName["actuate"], res.Frames)
	}
	// ISP-internal stage spans ride along (cat "isp", e.g. demosaic DM).
	if byName["DM"] != res.Frames {
		t.Fatalf("ISP demosaic spans = %d, want %d", byName["DM"], res.Frames)
	}
	// Cycle spans carry the knob-setting attributes.
	for _, e := range decoded.TraceEvents {
		if e.Name == "cycle" {
			if e.Args["isp"] == "" || e.Args["h_ms"] == nil || e.Args["roi"] == nil {
				t.Fatalf("cycle span missing knob attributes: %v", e.Args)
			}
			break
		}
	}
	// JSONL export holds the same events, one valid JSON object per line.
	var jl bytes.Buffer
	if err := tr.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&jl)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var span obs.Span
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("JSONL line %d invalid: %v", lines, err)
		}
		lines++
	}
	if lines != len(decoded.TraceEvents) {
		t.Fatalf("JSONL lines = %d, chrome events = %d", lines, len(decoded.TraceEvents))
	}

	// ---- Prometheus exposition over HTTP ----
	srv, err := obs.StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable metrics line %q", line)
		}
		samples[line[:i]] = v
	}
	if got := samples["hsas_sim_cycles_total"]; got != float64(res.Frames) {
		t.Fatalf("cycle counter = %v, want %d", got, res.Frames)
	}
	for stage, n := range want {
		if stage == "cycle" {
			continue
		}
		key := `hsas_sim_stage_seconds_count{stage="` + stage + `"}`
		if got := samples[key]; got != float64(n) {
			t.Fatalf("%s = %v, want %d", key, got, n)
		}
	}
	if got := samples["hsas_sim_detect_fail_total"]; got != float64(res.DetectFails) {
		t.Fatalf("detect-fail counter = %v, want %d", got, res.DetectFails)
	}
	if got, ok := samples["hsas_sim_reconfig_total"]; !ok || got != float64(len(res.SettingsUsed)-1) {
		t.Fatalf("reconfig counter = %v (present=%v), want %d", got, ok, len(res.SettingsUsed)-1)
	}

	// ---- structured log ----
	logs := logBuf.String()
	if !strings.Contains(logs, "sim run start") || !strings.Contains(logs, "sim run complete") {
		t.Fatalf("missing run logs:\n%s", logs)
	}
}

// countingSensor counts the Classify calls it forwards.
type countingSensor struct {
	Sensor
	n *int
}

func (c countingSensor) Classify(img *raster.RGB, truth world.Situation) int {
	*c.n++
	return c.Sensor.Classify(img, truth)
}
