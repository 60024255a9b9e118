package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"hsas/internal/camera"
	"hsas/internal/campaign"
	"hsas/internal/fabric"
	"hsas/internal/lake"
	"hsas/internal/obs"
	"hsas/internal/world"
)

// Campaign shape: two one-shard fabric workers, no more than two
// loopback connections, and two shards on the local engine.
const (
	shards       = 2
	warmRuns     = 500 // warm resubmissions: latency.p95_ms keeps 25 beyond it
	faultMix     = "noise:mag=0.2,p=0.1;drop:p=0.05"
	lakeCampaign = "perfbench"
)

// gridSituations are the Table III situations the grid covers: one
// straight, one right turn and two left turns, spanning four ISP knobs.
var gridSituations = []int{0, 7, 14, 19}

// campaignGrid expands the workload seed into the grid: situations ×
// two sim seeds derived from it × cases {3, 4} × fault specs, traces
// recorded on the fault-free case-4 jobs, and every fourth job
// submitted twice.
func campaignGrid(seed int64, small bool) []campaign.JobSpec {
	w, h, sits := 96, 48, gridSituations
	if small {
		w, h, sits = 64, 32, sits[:1]
	}
	var jobs []campaign.JobSpec
	for _, si := range sits {
		sit := world.PaperSituations[si]
		for range 2 {
			for _, c := range []int{3, 4} {
				for _, f := range []string{"", faultMix} {
					jobs = append(jobs, campaign.JobSpec{
						Situation: &sit, Camera: camera.Camera{Width: w, Height: h}, Case: c,
						Seed: splitmix(seed, len(jobs)), Faults: f, RecordTrace: c == 4 && f == "",
					})
				}
			}
		}
	}
	for i, n := 0, len(jobs); i < n; i += 4 {
		jobs = append(jobs, jobs[i])
	}
	return jobs
}

// resultsDigest hashes a campaign's results in submission order, with
// the informational wall time zeroed.
func resultsDigest(results []*campaign.JobResult) string {
	zeroed := make([]campaign.JobResult, len(results))
	for i, r := range results {
		if r != nil {
			zeroed[i] = *r
			zeroed[i].WallMS = 0
		}
	}
	b, _ := json.Marshal(zeroed)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// campaignEnv is one set-up: the coordinator's lake and two fabric
// worker nodes on loopback, each with its own durable cache.
type campaignEnv struct {
	lake    *lake.Writer
	workers []string
	stop    func()
}

// setupCampaign opens a fresh lake, starts the workers and warms the
// frame pipeline. Worker caches are timed into times when it is set.
func setupCampaign(dir string, times *cacheTimes) (*campaignEnv, error) {
	env := &campaignEnv{}
	var servers []*http.Server
	var done sync.WaitGroup
	env.stop = func() {
		for _, s := range servers {
			s.Close()
		}
		done.Wait()
	}
	var err error
	if env.lake, err = lake.OpenWriter(filepath.Join(dir, "lake"), nil); err != nil {
		return env, err
	}
	for i := 0; i < shards; i++ {
		dc, err := campaign.NewDirCache(filepath.Join(dir, fmt.Sprintf("worker-%d", i)))
		if err != nil {
			return env, err
		}
		var cache campaign.Cache = dc
		if times != nil {
			cache = &timedCache{inner: dc, t: times}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return env, fmt.Errorf("listening for a fabric worker: %w", err)
		}
		srv := &http.Server{Handler: fabric.NewWorker(fabric.WorkerConfig{Workers: 1, KernelWorkers: 1, Cache: cache}).Handler()}
		servers = append(servers, srv)
		done.Add(1)
		go func() {
			defer done.Done()
			srv.Serve(ln)
		}()
		env.workers = append(env.workers, "http://"+ln.Addr().String())
	}
	warmPipeline(world.SituationTrack(world.PaperSituations[0]), camera.Scaled(96, 48))
	return env, nil
}

// campaignRun is what the campaign workload measured.
type campaignRun struct {
	grid     []campaign.JobSpec
	cold     []*campaign.JobResult
	coldWall time.Duration
	warm     samples

	// Traced runs only: the worker caches' timings, the coordinator's
	// HTTP exchanges by phase, the Hooks tallies of the warm phase, and
	// the local engine's results for the same grid.
	cache              *cacheTimes
	coldHTTP, warmHTTP []exchange
	hookCached, hooks  int
	local              []*campaign.JobResult
}

// runCampaignFabric is the campaign workload: a cold phase that leases
// the grid to the workers, which simulate it and fill their caches, then
// a warm phase that resubmits the grid to fresh coordinators, each
// resolving every job through a peer's cache.
func runCampaignFabric(opts options) (*run, error) {
	r := &run{metrics: map[string]float64{}}
	cr := &campaignRun{grid: campaignGrid(opts.seed, opts.small)}
	if opts.trace {
		cr.cache = &cacheTimes{}
	}
	var envs []*campaignEnv
	defer func() {
		for _, e := range envs {
			e.stop()
		}
	}()
	setupS, env, err := timeSetup(func() (*campaignEnv, error) {
		e, err := setupCampaign(filepath.Join(opts.scratch, fmt.Sprintf("setup-%d", len(envs))), cr.cache)
		envs = append(envs, e)
		return e, err
	})
	if err != nil {
		return nil, err
	}

	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	var timedHTTP *timedClient
	client := &http.Client{Transport: tr}
	var hooks campaign.Hooks
	if opts.trace {
		timedHTTP = &timedClient{inner: tr}
		client = &http.Client{Transport: timedHTTP}
		hooks.JobDone = func(ev campaign.JobEvent) {
			cr.hooks++
			if ev.Cached {
				cr.hookCached++
			}
		}
	}
	reg := obs.NewRegistry()
	// coordinator returns a new coordinator whose local tier starts empty
	// and whose result rows go to lw.
	coordinator := func(lw *lake.Writer) *fabric.Coordinator {
		c, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
			Workers: env.workers, Lake: lw, LakeCampaign: lakeCampaign,
			Obs: &obs.Observer{Metrics: reg}, Hooks: hooks, BatchSize: 1, Client: client,
		})
		if err != nil {
			panic(err) // the worker URLs come from our own listeners
		}
		return c
	}
	ctx := context.Background()

	// Cold phase.
	want := opts.golden("campaign")
	c := coordinator(env.lake)
	runtime.GC() // start each phase from a collected heap
	allocs := allocCounter()
	start := time.Now()
	cold, stats, err := c.RunFabric(ctx, cr.grid)
	cr.coldWall = time.Since(start)
	coldAlloc := allocs()
	for i, res := range cold {
		r.op(err == nil && res != nil, "cold job %d: %v", i, err)
	}
	if err != nil {
		return nil, fmt.Errorf("cold phase: %w", err)
	}
	cr.cold = cold
	unique, simulated := stats.Unique, stats.RunStats().Simulated
	r.check(simulated == unique, "cold phase simulated %d of %d unique jobs", simulated, unique)
	coldDigest := resultsDigest(cold)
	if want == "" {
		fmt.Fprintf(os.Stderr, "perfbench: campaign results digest %s (seed %d)\n", coldDigest, opts.seed)
	}
	r.check(want == "" || coldDigest == want, "campaign results digest %s, want %s", coldDigest, want)
	uniq, err := uniqueJobs(cr.grid, cold)
	if err != nil {
		return nil, err
	}
	frames := 0
	for _, u := range uniq {
		frames += u.res.Frames
	}
	if opts.trace {
		cr.cache.phase.Store(1)
		cr.hooks, cr.hookCached = 0, 0
		cr.coldHTTP = timedHTTP.take()
	}

	// Warm phase: a peer's cache must serve every resubmission whole.
	// Each resubmission gets a fresh coordinator and a lake of its own,
	// so every one does the same work.
	runtime.GC()
	nWarm := warmRuns
	if opts.small {
		nWarm = 20
	}
	for n := 0; n < nWarm; n++ {
		dir := filepath.Join(opts.scratch, "warm-lake")
		lw, err := lake.OpenWriter(dir, nil)
		if err != nil {
			return nil, err
		}
		c := coordinator(lw)
		start := time.Now()
		res, st, err := c.RunFabric(ctx, cr.grid)
		cr.warm.add(time.Since(start))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		same := reflect.DeepEqual(res, cold)
		r.op(err == nil && st.RemoteHits == unique && same,
			"warm resubmission %d: err %v, %d of %d served by a peer, results equal %v", n, err, st.RemoteHits, unique, same)
	}

	r.metrics["setup_s"] = setupS
	r.metrics["frames_per_s"] = float64(frames) / cr.coldWall.Seconds()
	r.metrics["cold_jobs_per_s"] = float64(simulated) / cr.coldWall.Seconds()
	r.metrics["latency_p50_ms"] = cr.warm.quantile(0.50, time.Millisecond)
	r.metrics["alloc_mb"] = float64(coldAlloc) / 1e6
	if !opts.trace {
		return r, nil
	}
	cr.warmHTTP = timedHTTP.take()

	// The local engine, untraced, must return the fabric's results.
	cr.local, _, err = (&campaign.Engine{Workers: shards, Cache: campaign.NewMemCache()}).Run(ctx, cr.grid)
	if err != nil {
		return nil, fmt.Errorf("local engine: %w", err)
	}
	r.op(resultsDigest(cr.local) == coldDigest, "local engine digest %s, fabric %s", resultsDigest(cr.local), coldDigest)

	r.metrics = zeroPerLayer()
	r.metrics["latency.p95_ms"] = cr.warm.quantile(0.95, time.Millisecond)
	if err := attributeCampaign(r, cr, reg, opts.scratch); err != nil {
		return nil, err
	}
	r.metrics["error_rate"] = float64(r.failed) / float64(r.attempted)
	return r, nil
}
