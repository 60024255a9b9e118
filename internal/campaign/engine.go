package campaign

import (
	"context"
	"time"

	"hsas/internal/lake"
	"hsas/internal/obs"
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
	// runs share the metrics registry only.
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

// Hooks observe engine progress. JobDone calls are serialized across
// shards, in completion order.
type Hooks struct {
	JobDone func(JobEvent)
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
	start := time.Now()
	p, err := e.Resolve(ctx, jobs, func(ctx context.Context, p *Plan, misses []*Job) error {
		return p.Simulate(ctx, misses)
	})
	stats := RunStats{Jobs: len(jobs), Unique: p.Unique(), CacheHits: p.LocalHits(), Simulated: p.Simulated()}
	if err == nil && len(jobs) > 0 {
		e.Obs.Logger().Info("campaign complete",
			"jobs", stats.Jobs, "unique", stats.Unique, "cache_hits", stats.CacheHits,
			"simulated", stats.Simulated, "wall_s", time.Since(start).Seconds())
	}
	return p.Results(), stats, err
}
