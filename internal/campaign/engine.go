package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hsas/internal/lake"
	"hsas/internal/obs"
	"hsas/internal/sim"
)

// Engine runs campaign jobs on a bounded sharded worker pool. Identical
// jobs (same content address) are deduplicated and simulated once;
// cached jobs are never simulated. Results are assembled in submission
// order and are bit-identical for any worker count, so the pool size is
// purely a latency knob.
type Engine struct {
	// Workers is the shard count — the bound on concurrent closed-loop
	// simulations. 0 uses GOMAXPROCS.
	Workers int
	// KernelWorkers bounds the per-pixel/GEMM goroutines inside each
	// run. 0 divides GOMAXPROCS by the shard count so the two pools
	// compose without oversubscription; negative forces serial kernels.
	KernelWorkers int
	// Cache checkpoints every completed job under its content address;
	// nil disables caching (every job simulates).
	Cache Cache
	// Lake, when set, appends every completed job's result — and, for
	// record_trace jobs, its per-frame trace — to the columnar result
	// lake, labeled LakeCampaign. Append failures are logged, never
	// fatal: the content-addressed cache stays the source of truth and
	// the lake its analytical projection. Buffered rows are flushed
	// (sealed into segments) when Run returns, completed or not.
	Lake *lake.Writer
	// LakeCampaign labels this run's lake rows (e.g. the lkas-serve
	// campaign id); empty defaults to "adhoc".
	LakeCampaign string
	// Obs receives engine logs, campaign counters (jobs, cache hits and
	// misses, in-flight gauge, per-job wall-time histogram) and one span
	// per simulated job on its shard's trace lane. The inner closed-loop
	// runs share the metrics registry only, as in core.Characterize.
	Obs *obs.Observer
	// Hooks observe job lifecycle events (see Hooks).
	Hooks Hooks
}

// JobEvent describes one job lifecycle event.
type JobEvent struct {
	// Index is the job's position in the submitted slice. For
	// deduplicated jobs it is the first position; Indices lists all of
	// them.
	Index   int
	Indices []int
	// Spec is the normalized job.
	Spec *JobSpec
	// Result is set on successful completion (cached or simulated).
	Result *JobResult
	// Err is set when the job's simulation failed.
	Err error
	// Cached reports a cache hit (no simulation ran).
	Cached bool
	// Worker is the shard that ran the job (-1 for cache hits).
	Worker int
	// Start is the simulation start time (zero for cache hits).
	Start time.Time
}

// Hooks observe engine progress. JobStart fires from the shard
// goroutine (concurrently); JobDone calls are serialized across shards,
// in completion order.
type Hooks struct {
	JobStart func(JobEvent)
	JobDone  func(JobEvent)
}

// RunStats summarizes one Run: Jobs submitted, Unique after dedup,
// CacheHits served without simulating, Simulated actually run.
// CacheHits+Simulated < Unique only when the run was interrupted or
// failed.
type RunStats struct {
	Jobs      int
	Unique    int
	CacheHits int
	Simulated int
}

// engineMetrics are the obs counters shared by every Run on the same
// registry (get-or-create semantics make this idempotent).
type engineMetrics struct {
	jobs     *obs.Counter
	hits     *obs.Counter
	misses   *obs.Counter
	inflight *obs.Gauge
	jobH     *obs.Histogram
	// Failed lake appends and flushes (LakeFailureCounters).
	lakeAppendF *obs.Counter
	lakeFlushF  *obs.Counter
}

func newEngineMetrics(o *obs.Observer) engineMetrics {
	reg := o.Registry()
	lakeAppendF, lakeFlushF := LakeFailureCounters(reg)
	return engineMetrics{
		jobs:     reg.Counter("hsas_campaign_jobs_total", "campaign jobs completed (cached or simulated)"),
		hits:     reg.Counter("hsas_campaign_cache_hits_total", "campaign jobs served from the content-addressed cache"),
		misses:   reg.Counter("hsas_campaign_cache_misses_total", "campaign jobs that had to simulate"),
		inflight: reg.Gauge("hsas_campaign_jobs_inflight", "closed-loop simulations currently running"),
		jobH: reg.Histogram("hsas_campaign_job_seconds", "wall time per simulated campaign job",
			[]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}),
		lakeAppendF: lakeAppendF,
		lakeFlushF:  lakeFlushF,
	}
}

// Run executes the jobs and returns their results in submission order.
//
// Every job is first resolved against the cache; misses are partitioned
// round-robin across the shards and simulated. Each completed job is
// checkpointed to the cache immediately, so cancelling the context
// abandons only jobs that have not finished — a subsequent Run with the
// same cache resumes from the checkpoint and recomputes nothing. On
// cancellation Run returns the context's error and the partial results
// (nil entries for jobs that never ran).
func (e *Engine) Run(ctx context.Context, jobs []JobSpec) ([]*JobResult, RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stats := RunStats{Jobs: len(jobs)}
	results := make([]*JobResult, len(jobs))
	if len(jobs) == 0 {
		return results, stats, nil
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	kernelWorkers := e.KernelWorkers
	if kernelWorkers == 0 {
		kernelWorkers = max(1, runtime.GOMAXPROCS(0)/workers)
	}
	if kernelWorkers < 1 {
		kernelWorkers = 1
	}

	o := e.Obs
	met := newEngineMetrics(o)
	// Inner runs share the metrics registry (per-stage histograms under
	// campaign load) but stay out of the span stream and log, which
	// track the campaign itself.
	var inner *obs.Observer
	if o.Enabled() && o.Metrics != nil {
		inner = &obs.Observer{Metrics: o.Metrics}
	}

	// Normalize and address every job up front: an invalid spec fails
	// the whole campaign before any simulation starts.
	type uniqueJob struct {
		spec    JobSpec
		key     string
		indices []int
	}
	var uniq []*uniqueJob
	byKey := map[string]*uniqueJob{}
	for i := range jobs {
		n, err := jobs[i].Normalize()
		if err != nil {
			return results, stats, fmt.Errorf("campaign: job %d: %w", i, err)
		}
		key, err := n.Key()
		if err != nil {
			return results, stats, fmt.Errorf("campaign: job %d: %w", i, err)
		}
		if u, ok := byKey[key]; ok {
			u.indices = append(u.indices, i)
			continue
		}
		u := &uniqueJob{spec: n, key: key, indices: []int{i}}
		byKey[key] = u
		uniq = append(uniq, u)
	}
	stats.Unique = len(uniq)

	lakeCampaign := e.LakeCampaign
	if lakeCampaign == "" {
		lakeCampaign = "adhoc"
	}
	// appendLake projects one completed job onto the result lake. The
	// lake is best-effort: a failed append is logged and counted (so
	// operators can alert on analytics loss) and the job still succeeds
	// (its result lives in the cache regardless).
	appendLake := func(u *uniqueJob, res *JobResult, cached bool, points []sim.TracePoint) {
		if e.Lake == nil {
			return
		}
		if err := e.Lake.AppendResult(LakeResultRow(lakeCampaign, &u.spec, u.key, res, cached)); err != nil {
			met.lakeAppendF.Inc()
			o.Logger().Warn("lake append failed", "key", u.key[:12], "err", err)
		}
		if len(points) > 0 {
			if err := e.Lake.AppendTrace(LakeTraceRows(lakeCampaign, u.key, points)...); err != nil {
				met.lakeAppendF.Inc()
				o.Logger().Warn("lake trace append failed", "key", u.key[:12], "err", err)
			}
		}
	}
	// Seal buffered lake rows into segments on every exit path so a
	// finished (or interrupted) Run leaves the lake scannable.
	defer func() {
		if e.Lake == nil {
			return
		}
		if err := e.Lake.Flush(); err != nil {
			met.lakeFlushF.Inc()
			o.Logger().Warn("lake flush failed", "err", err)
		}
	}()

	var hookMu sync.Mutex // serializes JobDone across shards
	done := func(ev JobEvent) {
		hookMu.Lock()
		defer hookMu.Unlock()
		if e.Hooks.JobDone != nil {
			e.Hooks.JobDone(ev)
		}
	}
	fill := func(u *uniqueJob, res *JobResult) {
		for _, i := range u.indices {
			results[i] = res
		}
	}

	// Phase 1: resolve against the cache (serial; cache reads are cheap
	// next to a closed-loop simulation).
	var misses []*uniqueJob
	for _, u := range uniq {
		if e.Cache != nil {
			res, ok, err := e.Cache.Get(u.key)
			if err != nil {
				o.Logger().Warn("campaign cache read failed; re-simulating", "key", u.key, "err", err)
			}
			if ok {
				fill(u, res)
				stats.CacheHits++
				met.jobs.Inc()
				met.hits.Inc()
				appendLake(u, res, true, nil)
				done(JobEvent{Index: u.indices[0], Indices: u.indices, Spec: &u.spec,
					Result: res, Cached: true, Worker: -1})
				continue
			}
		}
		met.misses.Inc()
		misses = append(misses, u)
	}

	// Phase 2: simulate the misses on the sharded pool. Round-robin
	// partitioning keeps the assignment deterministic; results are
	// bit-identical either way, so this only shapes wall-clock.
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		nSim     int
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	start := time.Now()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(misses); i += workers {
				if ctx.Err() != nil {
					return
				}
				u := misses[i]
				ev := JobEvent{Index: u.indices[0], Indices: u.indices, Spec: &u.spec,
					Worker: w, Start: time.Now()}
				if e.Hooks.JobStart != nil {
					e.Hooks.JobStart(ev)
				}
				met.inflight.Add(1)
				res, points, traceCSV, err := u.spec.run(kernelWorkers, inner)
				met.inflight.Add(-1)
				if err == nil && e.Cache != nil {
					// Checkpoint before reporting: a result the caller saw
					// must survive an interrupt.
					if traceCSV != nil {
						if terr := e.Cache.PutTrace(u.key, traceCSV); terr != nil {
							err = terr
						}
					}
					if err == nil {
						err = e.Cache.Put(u.key, res)
					}
				}
				if err != nil {
					ev.Err = fmt.Errorf("campaign: job %d (%s): %w", u.indices[0], u.key[:12], err)
					fail(ev.Err)
					done(ev)
					return
				}
				wall := time.Since(ev.Start)
				met.jobs.Inc()
				met.jobH.Observe(wall.Seconds())
				if o.Enabled() {
					o.Tracer().Span("job", "campaign", w+1, ev.Start, map[string]any{
						"key": u.key[:12], "mae_m": res.MAE, "crashed": res.Crashed,
					})
				}
				errMu.Lock()
				nSim++
				errMu.Unlock()
				fill(u, res)
				appendLake(u, res, false, points)
				ev.Result = res
				done(ev)
			}
		}()
	}
	wg.Wait()
	stats.Simulated = nSim

	if err := ctx.Err(); err != nil {
		o.Logger().Info("campaign interrupted",
			"jobs", stats.Jobs, "unique", stats.Unique, "cache_hits", stats.CacheHits,
			"simulated", stats.Simulated)
		return results, stats, fmt.Errorf("campaign: interrupted after %d/%d unique jobs (checkpoint retained): %w",
			stats.CacheHits+stats.Simulated, stats.Unique, err)
	}
	if firstErr != nil {
		return results, stats, firstErr
	}
	o.Logger().Info("campaign complete",
		"jobs", stats.Jobs, "unique", stats.Unique, "cache_hits", stats.CacheHits,
		"simulated", stats.Simulated, "wall_s", time.Since(start).Seconds())
	return results, stats, nil
}
