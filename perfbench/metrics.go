package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metricDef is one reported metric: its name and unit, as BENCHMARK.json
// declares them (the self-tests hold the two lists equal).
type metricDef struct{ name, unit string }

// endToEnd is what --trace 0 reports on every workload. The latency
// times the workload's interactive operation: one control cycle on the
// loops, one warm grid resubmission on the campaign. Its tail
// (latency.p95_ms) is reported with the per-layer metrics: on a shared
// host it moves with other tenants' load more than with the code.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "1/s"},
	{"cold_jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"alloc_mb", "MB"},
}

// The closed loop's layer series.
var (
	classifierKinds = []string{"road", "lane", "scene"}
	precisionNames  = []string{"fp32", "int8"}
	ispStages       = []string{"demosaic", "denoise", "colormap", "gamutmap", "tonemap"}
)

// cnnLayers is ResNetLite's depth: stem conv, ReLU, pool, three residual
// blocks, dense head.
const cnnLayers = 7

// perLayer is what --trace 1 reports on every workload; a layer the
// workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(name, unit string) { m = append(m, metricDef{name, unit}) }
	add("latency.p95_ms", "ms")
	// Closed loop, in pipeline order.
	add("camera.render_ms", "ms")
	add("isp.total_ms", "ms")
	for _, s := range ispStages {
		add("isp."+s+"_ms", "ms")
	}
	for _, k := range classifierKinds {
		for _, p := range precisionNames {
			add("classifier."+k+"."+p+"_ms", "ms")
		}
	}
	for _, k := range classifierKinds {
		for l := 0; l < cnnLayers; l++ {
			add("cnn."+k+".L"+strconv.Itoa(l)+"_ms", "ms")
		}
	}
	add("perception.detect_ms", "ms")
	add("control.step_us", "us")
	add("control.design_ms", "ms")
	add("physics.step_us", "us")
	for _, s := range loopShares() {
		add(s+".share", "ratio")
	}
	add("loop.frames", "count")
	add("physics.steps", "count")
	add("control.designs", "count")
	add("raster.pool_misses", "count")
	for _, k := range classifierKinds {
		add("classifier."+k+".agree", "count")
	}
	add("loop.unattributed_share", "ratio")
	add("loop.trace_overhead_fps", "1/s")

	// Campaign runners.
	add("campaign.normalize_key_us", "us")
	add("campaign.cache_get_us", "us")
	add("campaign.cache_put_us", "us")
	add("campaign.cache_put_trace_us", "us")
	add("campaign.sim_s", "s")
	add("lake.append_us", "us")
	add("lake.flush_ms", "ms")
	add("lake.bytes_per_row", "B")
	add("fabric.lease_ms", "ms")
	add("fabric.lease_jobs", "count")
	add("fabric.worker_sim_s", "s")
	add("fabric.remote_get_us", "us")
	add("fabric.remote_hit_ratio", "ratio")
	for _, s := range campaignShares {
		add(s+".share", "ratio")
	}
	add("campaign.hit_ratio", "ratio")
	add("campaign.dedup_ratio", "ratio")
	add("fabric.requeues", "count")
	add("fabric.retries", "count")
	add("fabric.steals", "count")
	add("campaign.unattributed_share", "ratio")
	add("error_rate", "ratio")
	return m
}

// loopShares are the closed-loop layers whose time is also reported as
// a share of the traced lap's wall time.
func loopShares() []string {
	s := []string{"camera.render", "isp.total"}
	for _, st := range ispStages {
		s = append(s, "isp."+st)
	}
	for _, k := range classifierKinds {
		for _, p := range precisionNames {
			s = append(s, "classifier."+k+"."+p)
		}
	}
	return append(s, "perception.detect", "control.step", "physics.step")
}

// campaignShares are the campaign layers also reported as a share: of
// the warm phase's wall time for the warm-path layers, of the cold
// phase's lane time for the cold-path ones (see attributeCampaign).
var campaignShares = []string{
	"campaign.normalize_key", "campaign.cache_get", "campaign.cache_put",
	"campaign.cache_put_trace", "campaign.sim", "lake.append", "lake.flush",
	"fabric.lease", "fabric.remote_get",
}

// zeroPerLayer returns every per-layer metric at 0, for a workload to
// fill in the layers it exercises.
func zeroPerLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// samples accumulates durations for one layer.
type samples struct{ d []time.Duration }

func (s *samples) add(d time.Duration) { s.d = append(s.d, d) }

func (s *samples) total() time.Duration {
	var t time.Duration
	for _, d := range s.d {
		t += d
	}
	return t
}

// quantile returns the q-quantile (nearest rank) in the given unit, 0
// when empty.
func (s *samples) quantile(q float64, unit time.Duration) float64 {
	if len(s.d) == 0 {
		return 0
	}
	v := append([]time.Duration(nil), s.d...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	i := int(math.Ceil(q*float64(len(v)))) - 1
	i = min(max(i, 0), len(v)-1)
	return float64(v[i]) / float64(unit)
}

func (s *samples) p50(unit time.Duration) float64 { return s.quantile(0.5, unit) }

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// timeSetup runs setup several times, nine when set-up is cheap and at
// least three, and returns the median wall time in seconds and the last
// set-up's value.
func timeSetup[T any](setup func() (T, error)) (float64, T, error) {
	var last T
	var secs []float64
	var spent time.Duration
	for i := 0; i < 9 && (i < 3 || spent < 2*time.Second); i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return 0, last, err
		}
		d := time.Since(start)
		spent += d
		secs = append(secs, d.Seconds())
		last = v
	}
	return median(secs), last, nil
}

// splitmix derives independent 63-bit seeds from the workload seed.
func splitmix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// allocCounter returns a function reporting the bytes allocated since
// allocCounter was called.
func allocCounter() func() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	return func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - start
	}
}
