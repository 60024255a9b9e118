package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant metric dimension (e.g. stage="isp"). Each
// distinct (name, label set) pair is an independent time series.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DefBuckets are the default latency histogram bounds in seconds,
// spanning 100 µs to 1 s — the range of the pipeline stages (Table II
// puts the full S0 ISP at 21.5 ms and a classifier at 5.5 ms).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the value (lock-free CAS loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: bucket i counts observations ≤ bounds[i]).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// metric type names used in the TYPE exposition line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one registered (name, labels) time series.
type series struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name, help, typ string
	order           []string // label-set registration order
	series          map[string]*series
}

// Registry is a concurrency-safe collection of metrics. The zero value
// is not usable; construct with NewRegistry. A nil *Registry is a valid
// no-op sink: registration returns nil metrics, which swallow updates.
type Registry struct {
	mu        sync.Mutex
	families  map[string]*family
	published bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup returns (creating if needed) the series for name+labels,
// enforcing one metric type per name. The series and its metric are
// created together while r.mu is held, so concurrent registration of the
// same series always yields one instance.
func (r *Registry) lookup(name, help, typ string, labels []Label, newMetric func(s *series)) *series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		newMetric(s)
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter registers (or finds) a counter. Safe for concurrent use; a nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, typeCounter, labels, func(s *series) { s.c = &Counter{} })
	return s.c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, typeGauge, labels, func(s *series) { s.g = &Gauge{} })
	return s.g
}

// Histogram registers (or finds) a histogram with the given upper bounds
// (sorted ascending; +Inf is implicit). A nil or empty buckets slice uses
// DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	s := r.lookup(name, help, typeHistogram, labels, func(s *series) {
		b := make([]float64, len(buckets))
		copy(b, buckets)
		sort.Float64s(b)
		s.h = &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
	})
	return s.h
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4), families sorted by name for determinism.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot the family structure (names, order, series pointers) under
	// the lock: lookup() may append to f.order / insert into f.series
	// concurrently, and bare map reads would race with those writes. The
	// atomic metric values are read after unlocking (metric updates never
	// take the registry lock).
	type famSnap struct {
		name, help, typ string
		series          []*series
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]famSnap, len(names))
	for i, n := range names {
		f := r.families[n]
		fs := famSnap{name: f.name, help: f.help, typ: f.typ, series: make([]*series, len(f.order))}
		for j, key := range f.order {
			fs.series[j] = f.series[key]
		}
		fams[i] = fs
	}
	r.mu.Unlock()

	var sb strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(&sb, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case typeGauge:
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, s.labels, formatFloat(s.g.Value()))
			case typeHistogram:
				var cum int64
				for i, b := range s.h.bounds {
					cum += s.h.buckets[i].Load()
					fmt.Fprintf(&sb, "%s_bucket%s %d\n", f.name, withLE(s.labels, formatFloat(b)), cum)
				}
				cum += s.h.buckets[len(s.h.bounds)].Load()
				fmt.Fprintf(&sb, "%s_bucket%s %d\n", f.name, withLE(s.labels, "+Inf"), cum)
				fmt.Fprintf(&sb, "%s_sum%s %s\n", f.name, s.labels, formatFloat(s.h.Sum()))
				fmt.Fprintf(&sb, "%s_count%s %d\n", f.name, s.labels, s.h.Count())
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// WritePrometheusFile writes the exposition to the named file, or to
// stderr for "-" (the commands' -metrics-out flag).
func (r *Registry) WritePrometheusFile(path string) error {
	if path == "-" {
		return r.WritePrometheus(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.WritePrometheus(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Handler serves the registry as Prometheus text exposition (mount at
// /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// expvarMu serializes the expvar.Get existence check with the
// expvar.Publish call across all registries, so a duplicate name from a
// second registry degrades to the documented first-call-wins no-op
// instead of a Publish panic.
var expvarMu sync.Mutex

// PublishExpvar publishes the registry under the given expvar name
// (visible at /debug/vars on any server with the expvar handler). The
// first call wins; republishing the same or another registry under an
// already-taken name is a no-op (expvar itself forbids re-publication).
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	already := r.published
	r.published = true
	r.mu.Unlock()
	if already {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.snapshot() }))
}

// snapshot renders every series to a JSON-friendly map for expvar.
func (r *Registry) snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]any{}
	for name, f := range r.families {
		for _, key := range f.order {
			s := f.series[key]
			id := name + s.labels
			switch f.typ {
			case typeCounter:
				out[id] = s.c.Value()
			case typeGauge:
				out[id] = s.g.Value()
			case typeHistogram:
				out[id] = map[string]any{"count": s.h.Count(), "sum": s.h.Sum()}
			}
		}
	}
	return out
}

// renderLabels renders a deterministic {k="v",...} suffix ("" when
// empty); labels are sorted by key.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

// withLE merges an le="bound" label into a rendered label suffix.
func withLE(rendered, bound string) string {
	le := `le="` + bound + `"`
	if rendered == "" {
		return "{" + le + "}"
	}
	return rendered[:len(rendered)-1] + "," + le + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
