package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricsMatchBenchmarkJSON holds the metric names and units the
// command prints equal to those BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, got []metricDef, names, units, better []string) {
		if len(got) != len(names) {
			t.Errorf("%s: command prints %d metrics, BENCHMARK.json declares %d", kind, len(got), len(names))
		}
		for i := 0; i < min(len(got), len(names)); i++ {
			if got[i].name != names[i] || got[i].unit != units[i] {
				t.Errorf("%s[%d]: command prints %s (%s), BENCHMARK.json declares %s (%s)",
					kind, i, got[i].name, got[i].unit, names[i], units[i])
			}
			if !nameRE.MatchString(names[i]) {
				t.Errorf("%s: bad metric name %q", kind, names[i])
			}
			if !unitRE.MatchString(units[i]) {
				t.Errorf("%s: metric %s has bad unit %q", kind, names[i], units[i])
			}
			if better[i] != "lower" && better[i] != "higher" {
				t.Errorf("%s: metric %s: better is %q", kind, names[i], better[i])
			}
		}
	}
	var n, u, b []string
	for _, m := range bj.EndToEnd {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end: metric %s has bound %v", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u, b)
	n, u, b = nil, nil, nil
	for _, m := range bj.PerLayer {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("per_layer", perLayer, n, u, b)

	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric %s is declared twice", m.name)
		}
		seen[m.name] = true
	}
	var want, got []string
	for _, w := range bj.Workloads {
		want = append(want, w.Name)
	}
	for w := range workloads {
		got = append(got, w)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != len(got) {
		t.Fatalf("workloads: command runs %v, BENCHMARK.json declares %v", got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("workloads: command runs %v, BENCHMARK.json declares %v", got, want)
		}
	}
}

// TestWorkloadsSmall runs every workload, untraced and traced, at a
// smoke-test size and requires a complete, correct result.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			opts := options{workload: name, seed: 3, budget: time.Second, trace: trace, scratch: t.TempDir(), small: true}
			r, err := fn(opts)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			res, err := r.result(trace)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed: %v", name, trace, res.Correct, res.Failed, res.Attempted, r.problems)
			}
			if !trace {
				for m, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
					}
				}
			}
		}
	}
}
