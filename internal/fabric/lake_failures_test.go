package fabric

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"hsas/internal/campaign"
	"hsas/internal/lake"
	"hsas/internal/obs"
	"hsas/internal/trace"
)

// lookupless serves w's API, except that every cache lookup finds
// nothing: the coordinator then leases the jobs, and the worker resolves
// them from its own cache.
func lookupless(w *Worker) http.Handler {
	h := w.Handler()
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cache/lookup" {
			_, _ = rw.Write([]byte(`{"done":true}` + "\n"))
			return
		}
		h.ServeHTTP(rw, r)
	})
}

// completion is what one runner's campaign left behind: the JobDone
// Cached flags in completion order, the lake's result-row Cached flags
// and trace-row count, and the shared campaign and lake counters.
type completion struct {
	hookCached []bool
	rowCached  []bool
	traceRows  int
	counters   map[string]int64
}

// runnerCompletion calls run with a fresh registry and lake (closed
// first when broken) and collects the completion it left behind.
func runnerCompletion(t *testing.T, broken bool,
	run func(lw *lake.Writer, o *obs.Observer, hooks campaign.Hooks) error) completion {
	t.Helper()
	dir := t.TempDir()
	lw, err := lake.OpenWriter(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if broken {
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	var got completion
	hooks := campaign.Hooks{JobDone: func(ev campaign.JobEvent) {
		got.hookCached = append(got.hookCached, ev.Cached)
	}}
	if err := run(lw, &obs.Observer{Metrics: reg}, hooks); err != nil {
		t.Fatalf("lake failures must not fail the run: %v", err)
	}
	if !broken {
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := lake.ScanResults(dir, func(r *lake.ResultRow) error {
			got.rowCached = append(got.rowCached, r.Cached)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sum, _, err := lake.SummarizeTraces(dir, "adhoc")
		if err != nil {
			t.Fatal(err)
		}
		got.traceRows = int(sum.Rows)
	}
	appendF, flushF := campaign.LakeFailureCounters(reg)
	got.counters = map[string]int64{
		"hsas_lake_append_failures_total": appendF.Value(),
		"hsas_lake_flush_failures_total":  flushF.Value(),
	}
	for _, name := range []string{"hsas_campaign_jobs_total", "hsas_campaign_cache_hits_total", "hsas_campaign_cache_misses_total"} {
		got.counters[name] = reg.Counter(name, "").Value()
	}
	return got
}

// TestRunnersCountLakeFailuresAlike is one table run against
// campaign.Engine and the fabric coordinator: for every way a job can
// complete, both runners must report it to JobDone alike, project the
// same lake rows (trace rows only in the campaign that simulated the
// job), and move the shared campaign and lake-failure counters by the
// same amounts — a lake that loses rows must show the same loss
// whichever runner wrote it. Each hit path runs the Engine on a warm
// cache, its single-node equivalent.
func TestRunnersCountLakeFailuresAlike(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second e2e")
	}
	traced := tinyJobs(2)
	traced[1].RecordTrace = true
	warm := campaign.NewMemCache()
	if _, _, err := (&campaign.Engine{Workers: 1, Cache: warm}).Run(context.Background(), traced); err != nil {
		t.Fatal(err)
	}
	key, _ := traced[1].Key()
	csv, ok, _ := warm.GetTrace(key)
	if !ok {
		t.Fatal("warm cache lacks the trace")
	}
	pts, err := trace.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	cold := func() campaign.Cache { return campaign.NewMemCache() }
	worker := func(h func(*Worker) http.Handler, c campaign.Cache) string {
		srv := httptest.NewServer(h(NewWorker(WorkerConfig{Workers: 1, Cache: c})))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	handler := func(w *Worker) http.Handler { return w.Handler() }

	paths := []struct {
		name string
		jobs []campaign.JobSpec
		// engineCache is the Engine's cache; coordinator returns the
		// coordinator's local cache and its worker's URL.
		engineCache func() campaign.Cache
		coordinator func() (campaign.Cache, string)
		// tier is the FabricStats tier that must resolve every job.
		tier      func(FabricStats) int
		cached    bool
		traceRows int
	}{
		{"cache hits", traced, func() campaign.Cache { return warm },
			func() (campaign.Cache, string) { return warm, worker(handler, cold()) },
			func(fs FabricStats) int { return fs.LocalHits }, true, 0},
		{"peer hits", traced, func() campaign.Cache { return warm },
			func() (campaign.Cache, string) { return cold(), worker(handler, warm) },
			func(fs FabricStats) int { return fs.RemoteHits }, true, 0},
		{"worker-cache lease hits", traced, func() campaign.Cache { return warm },
			func() (campaign.Cache, string) { return cold(), worker(lookupless, warm) },
			func(fs FabricStats) int { return fs.WorkerCacheHits }, true, 0},
		{"simulated", tinyJobs(2), cold,
			func() (campaign.Cache, string) { return cold(), worker(handler, cold()) },
			func(fs FabricStats) int { return fs.RemoteSimulated }, false, 0},
		{"simulated with trace", traced, cold,
			func() (campaign.Cache, string) { return cold(), worker(handler, cold()) },
			func(fs FabricStats) int { return fs.RemoteSimulated }, false, len(pts)},
	}
	for _, lakeState := range []string{"healthy lake", "closed lake"} {
		broken := lakeState == "closed lake"
		for _, path := range paths {
			t.Run(lakeState+", "+path.name, func(t *testing.T) {
				n := int64(len(path.jobs))
				want := completion{
					hookCached: []bool{path.cached, path.cached},
					counters: map[string]int64{
						"hsas_campaign_jobs_total":         n,
						"hsas_campaign_cache_hits_total":   0,
						"hsas_campaign_cache_misses_total": n,
						"hsas_lake_append_failures_total":  0,
						"hsas_lake_flush_failures_total":   0,
					},
				}
				if path.cached {
					want.counters["hsas_campaign_cache_hits_total"] = n
					want.counters["hsas_campaign_cache_misses_total"] = 0
				}
				if broken {
					// Every result row and every simulated trace is lost,
					// and so is the flush.
					want.counters["hsas_lake_append_failures_total"] = n
					if path.traceRows > 0 {
						want.counters["hsas_lake_append_failures_total"]++
					}
					want.counters["hsas_lake_flush_failures_total"] = 1
				} else {
					want.rowCached = []bool{path.cached, path.cached}
					want.traceRows = path.traceRows
				}

				runners := []struct {
					name string
					run  func(lw *lake.Writer, o *obs.Observer, hooks campaign.Hooks) error
				}{
					{"engine", func(lw *lake.Writer, o *obs.Observer, hooks campaign.Hooks) error {
						eng := &campaign.Engine{Workers: 1, Cache: path.engineCache(), Lake: lw, Obs: o, Hooks: hooks}
						_, _, err := eng.Run(context.Background(), path.jobs)
						return err
					}},
					{"coordinator", func(lw *lake.Writer, o *obs.Observer, hooks campaign.Hooks) error {
						local, url := path.coordinator()
						co, err := NewCoordinator(CoordinatorConfig{Workers: []string{url}, Cache: local,
							Lake: lw, Obs: o, Hooks: hooks})
						if err != nil {
							return err
						}
						_, fs, err := co.RunFabric(context.Background(), path.jobs)
						if got := path.tier(fs); err == nil && got != len(path.jobs) {
							t.Errorf("coordinator: stats %+v: %d jobs on the %s tier, want %d", fs, got, path.name, len(path.jobs))
						}
						return err
					}},
				}
				for _, r := range runners {
					if got := runnerCompletion(t, broken, r.run); !reflect.DeepEqual(got, want) {
						t.Errorf("%s:\n got %+v\nwant %+v", r.name, got, want)
					}
				}
			})
		}
	}
}

// TestCoordinatorWorkerCacheHitsAreCached: a job a leased worker serves
// from its own cache is a cached completion, in JobDone and in the
// lake's Cached column alike, just as FabricStats counts it.
func TestCoordinatorWorkerCacheHitsAreCached(t *testing.T) {
	jobs := tinyJobs(2)
	cache := campaign.NewMemCache()
	w := NewWorker(WorkerConfig{Workers: 1, Cache: cache})
	if _, _, err := (&campaign.Engine{Workers: 1, Cache: cache}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(lookupless(w))
	defer srv.Close()
	dir := t.TempDir()
	lw, err := lake.OpenWriter(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var hookCached []bool
	co, err := NewCoordinator(CoordinatorConfig{Workers: []string{srv.URL}, Lake: lw,
		Hooks: campaign.Hooks{JobDone: func(ev campaign.JobEvent) {
			mu.Lock()
			hookCached = append(hookCached, ev.Cached)
			mu.Unlock()
		}}})
	if err != nil {
		t.Fatal(err)
	}
	_, fs, err := co.RunFabric(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if fs.WorkerCacheHits != 2 || fs.RemoteSimulated != 0 {
		t.Fatalf("stats = %+v, want 2 worker cache hits", fs)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	var rowCached []bool
	if _, err := lake.ScanResults(dir, func(r *lake.ResultRow) error {
		rowCached = append(rowCached, r.Cached)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true}
	if !reflect.DeepEqual(hookCached, want) || !reflect.DeepEqual(rowCached, want) {
		t.Fatalf("Cached flags: JobDone %v, lake rows %v; want %v for both", hookCached, rowCached, want)
	}
}
