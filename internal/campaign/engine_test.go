package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/lake"
	"hsas/internal/obs"
)

// tinyJob is a fast (~1/3 s) closed-loop job for engine tests.
func tinyJob(seed int64) JobSpec {
	return JobSpec{Situation: testSit(), Camera: camera.Scaled(64, 32),
		Fixed: testSetting(), FixedClassifiers: 3, Seed: seed}
}

// stripWall zeroes the informational wall-time field so results can be
// compared across runs (everything else is bit-deterministic).
func stripWall(rs []*JobResult) []JobResult {
	out := make([]JobResult, len(rs))
	for i, r := range rs {
		if r == nil {
			continue
		}
		out[i] = *r
		out[i].WallMS = 0
	}
	return out
}

func TestEngineDedupsAndServesFromCache(t *testing.T) {
	reg := obs.NewRegistry()
	eng := &Engine{Workers: 2, Cache: NewMemCache(), Obs: &obs.Observer{Metrics: reg}}
	jobs := []JobSpec{tinyJob(1), tinyJob(2), tinyJob(1)} // 0 and 2 identical

	results, stats, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (RunStats{Jobs: 3, Unique: 2, CacheHits: 0, Simulated: 2}) {
		t.Fatalf("cold stats = %+v", stats)
	}
	if results[0] == nil || results[0] != results[2] {
		t.Fatal("deduplicated jobs did not share one result")
	}
	if results[0].Frames == 0 {
		t.Fatal("result looks empty")
	}

	// Resubmission: zero simulations, bit-identical results.
	again, stats2, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats2 != (RunStats{Jobs: 3, Unique: 2, CacheHits: 2, Simulated: 0}) {
		t.Fatalf("warm stats = %+v", stats2)
	}
	if !reflect.DeepEqual(stripWall(results), stripWall(again)) {
		t.Fatal("cached results differ from the originals")
	}

	counters := map[string]float64{
		"hsas_campaign_jobs_total":         4, // 2 simulated + 2 cache hits
		"hsas_campaign_cache_hits_total":   2,
		"hsas_campaign_cache_misses_total": 2,
	}
	for name, want := range counters {
		if got := counterValue(t, reg, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func counterValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestEngineCountsLakeFailures pins the silent-analytics-loss fix: a
// failing lake is still best-effort (the run succeeds; the cache is the
// source of truth) but every lost append/flush is counted so operators
// can alert on it.
func TestEngineCountsLakeFailures(t *testing.T) {
	lw, err := lake.OpenWriter(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil { // closed writer rejects every append/flush
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng := &Engine{Workers: 1, Cache: NewMemCache(), Lake: lw,
		Obs: &obs.Observer{Metrics: reg}}
	results, _, err := eng.Run(context.Background(), []JobSpec{tinyJob(1)})
	if err != nil || results[0] == nil {
		t.Fatalf("lake failures must not fail the run: %v", err)
	}
	if got := counterValue(t, reg, "hsas_lake_append_failures_total"); got != 1 {
		t.Errorf("hsas_lake_append_failures_total = %v, want 1", got)
	}
	if got := counterValue(t, reg, "hsas_lake_flush_failures_total"); got != 1 {
		t.Errorf("hsas_lake_flush_failures_total = %v, want 1", got)
	}
}

func TestEngineInterruptResumesFromCheckpoint(t *testing.T) {
	jobs := []JobSpec{tinyJob(1), tinyJob(2), tinyJob(3)}

	// Ground truth: the same jobs, no cache, no interruption.
	truth, _, err := (&Engine{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel as soon as the first job checkpoints.
	dc, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := &Engine{Workers: 1, Cache: dc,
		Hooks: Hooks{JobDone: func(JobEvent) { cancel() }}}
	_, stats, err := eng.Run(ctx, jobs)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted run returned %v", err)
	}
	if stats.Simulated != 1 {
		t.Fatalf("interrupted run simulated %d jobs, want 1", stats.Simulated)
	}

	// Resume: only the missing jobs simulate; the final results match
	// the uninterrupted run bit for bit.
	resumed, stats2, err := (&Engine{Workers: 1, Cache: dc}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.CacheHits != 1 || stats2.Simulated != 2 {
		t.Fatalf("resume stats = %+v, want 1 hit + 2 simulated", stats2)
	}
	if !reflect.DeepEqual(stripWall(truth), stripWall(resumed)) {
		t.Fatal("resumed results differ from the uninterrupted run")
	}
}

// TestEngineCancelledSkipsCacheHits: a campaign whose context is
// already cancelled completes nothing, not even the jobs the cache
// holds, and reports the interruption.
func TestEngineCancelledSkipsCacheHits(t *testing.T) {
	jobs := []JobSpec{tinyJob(1), tinyJob(2)}
	cache := NewMemCache()
	if _, _, err := (&Engine{Workers: 1, Cache: cache}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := 0
	eng := &Engine{Workers: 1, Cache: cache, Hooks: Hooks{JobDone: func(JobEvent) { done++ }}}
	results, stats, err := eng.Run(ctx, jobs)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("cancelled run returned %v", err)
	}
	if done != 0 || stats.CacheHits != 0 || results[0] != nil || results[1] != nil {
		t.Fatalf("cancelled run completed %d jobs (%d cache hits, results %v), want none", done, stats.CacheHits, results)
	}
}

func TestEngineFailsFastOnInvalidJob(t *testing.T) {
	jobs := []JobSpec{tinyJob(1), {Camera: camera.Scaled(64, 32), Case: 1}} // job 1: no situation
	_, _, err := (&Engine{Workers: 1}).Run(context.Background(), jobs)
	if err == nil || !strings.Contains(err.Error(), "job 1:") {
		t.Fatalf("err = %v, want job 1 validation failure before any simulation", err)
	}
}

func TestEngineRecordsTraceArtifact(t *testing.T) {
	c := NewMemCache()
	job := tinyJob(1)
	job.RecordTrace = true
	results, _, err := (&Engine{Workers: 1, Cache: c}).Run(context.Background(), []JobSpec{job})
	if err != nil {
		t.Fatal(err)
	}
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	csv, ok, err := c.GetTrace(key)
	if err != nil || !ok {
		t.Fatalf("GetTrace = ok=%v err=%v", ok, err)
	}
	if len(csv) == 0 || results[0].Frames == 0 {
		t.Fatal("trace artifact or result empty")
	}
}

func TestEngineEmptyAndNilDefaults(t *testing.T) {
	// No jobs, nil cache, nil obs, nil ctx: all legal.
	results, stats, err := (&Engine{}).Run(nil, nil)
	if err != nil || len(results) != 0 || stats.Jobs != 0 {
		t.Fatalf("empty run = %v %+v %v", results, stats, err)
	}
}

// TestEngineResimulatesTornTrace: a record_trace job is a cache hit
// only with its trace. When the cached trace is torn the job
// re-simulates, and the rerun restores the trace.
func TestEngineResimulatesTornTrace(t *testing.T) {
	dc, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := tinyJob(1)
	job.RecordTrace = true
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Workers: 1, Cache: dc}
	if _, _, err := eng.Run(context.Background(), []JobSpec{job}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dc.Dir(), key[:2], key+".trace.csv"), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stats, err := eng.Run(context.Background(), []JobSpec{job})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 0 || stats.Simulated != 1 {
		t.Fatalf("rerun stats = %+v, want the job re-simulated", stats)
	}
	if _, ok, err := dc.GetTrace(key); !ok || err != nil {
		t.Fatalf("trace not restored: ok=%v err=%v", ok, err)
	}
}
