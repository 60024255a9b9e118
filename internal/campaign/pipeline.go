package campaign

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hsas/internal/obs"
	"hsas/internal/sim"
	"hsas/internal/trace"
)

// This file is the pipeline both campaign runners share: Engine.Run and
// internal/fabric's coordinator. Resolve plans a submission (normalize →
// key → dedup), completes the local cache tier's hits and hands the
// misses to the runner, which differs only in how it resolves them: the
// Engine on the simulation pool (Plan.Simulate), the coordinator through
// peer caches and leases first and the same pool last. Every job, however
// resolved, finishes through one first-result-wins completion: result
// fill, lake projection, campaign counters and a serialized JobDone.

// Job is one unique (normalized, content-addressed) job of a Plan.
type Job struct {
	Spec JobSpec
	Key  string
	// Indices are the job's positions in the submitted slice, ascending.
	Indices []int
	done    bool // guarded by Plan.mu
}

// Trace is a per-cycle trace as a job's resolution brought it in: the
// CSV artifact and its points. Err marks an artifact that failed to
// parse; it is neither cached nor projected onto the lake.
type Trace struct {
	CSV    []byte
	Points []sim.TracePoint
	Err    error
}

// ParseTrace parses a received trace artifact once, for both the cache
// (which must hold only traces that parse) and the lake.
func ParseTrace(csv []byte) Trace {
	pts, err := trace.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		return Trace{Err: fmt.Errorf("parsing trace: %w", err)}
	}
	return Trace{CSV: csv, Points: pts}
}

// Plan is one submission on its way to results: its unique jobs and
// their completion state. It is safe for concurrent use.
type Plan struct {
	e            *Engine
	met          engineMetrics
	lakeCampaign string
	results      []*JobResult
	uniq         []*Job // first-submission order
	byKey        map[string]*Job
	localHits    int

	hookMu    sync.Mutex // serializes Hooks.JobDone
	mu        sync.Mutex // guards Job.done, left and simulated
	left      int
	simulated int
}

// Resolve runs jobs through the campaign pipeline. It normalizes and
// addresses every job (an invalid spec fails the campaign before any
// work starts), completes the jobs the local cache holds, passes the
// misses to resolveMisses, and flushes the lake on every exit path. The
// Plan carries the results in submission order (nil for jobs that never
// completed). When ctx is cancelled Resolve reports the interruption,
// wrapping ctx's error; otherwise it returns resolveMisses' error.
func (e *Engine) Resolve(ctx context.Context, jobs []JobSpec,
	resolveMisses func(ctx context.Context, p *Plan, misses []*Job) error) (*Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &Plan{e: e, results: make([]*JobResult, len(jobs))}
	if len(jobs) == 0 {
		return p, nil
	}
	p.met = newEngineMetrics(e.Obs)
	var uniq []*Job
	byKey := map[string]*Job{}
	for i := range jobs {
		n, err := jobs[i].Normalize()
		if err != nil {
			return p, fmt.Errorf("campaign: job %d: %w", i, err)
		}
		key, err := n.Key()
		if err != nil {
			return p, fmt.Errorf("campaign: job %d: %w", i, err)
		}
		if u, ok := byKey[key]; ok {
			u.Indices = append(u.Indices, i)
			continue
		}
		u := &Job{Spec: n, Key: key, Indices: []int{i}}
		byKey[key] = u
		uniq = append(uniq, u)
	}
	p.uniq, p.byKey, p.left = uniq, byKey, len(uniq)
	p.lakeCampaign = cmp.Or(e.LakeCampaign, "adhoc")
	defer p.flush()

	err := resolveMisses(ctx, p, p.local(ctx))
	if cerr := ctx.Err(); cerr != nil {
		done := p.Unique() - p.Left()
		e.Obs.Logger().Info("campaign interrupted", "jobs", len(jobs), "unique", p.Unique(), "done", done)
		return p, fmt.Errorf("campaign: interrupted after %d/%d unique jobs (checkpoint retained): %w",
			done, p.Unique(), cerr)
	}
	return p, err
}

// Results returns the results in submission order; deduplicated jobs
// share one result.
func (p *Plan) Results() []*JobResult { return p.results }

// Unique is the number of jobs after deduplication.
func (p *Plan) Unique() int { return len(p.uniq) }

// LocalHits is the number of jobs the local cache tier completed.
func (p *Plan) LocalHits() int { return p.localHits }

// Simulated is the number of jobs the simulation pool completed.
func (p *Plan) Simulated() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.simulated
}

// Left is the number of unique jobs not yet completed.
func (p *Plan) Left() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.left
}

// Job returns the unique job addressed by key, or nil when key is not
// part of this campaign.
func (p *Plan) Job(key string) *Job { return p.byKey[key] }

// Done reports whether u has completed.
func (p *Plan) Done(u *Job) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return u.done
}

// Remaining returns the jobs not yet completed, in submission order.
func (p *Plan) Remaining() []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Job
	for _, u := range p.uniq {
		if !u.done {
			out = append(out, u)
		}
	}
	return out
}

// local completes every job the local cache holds and returns the
// misses in submission order. Once ctx is done it reads no more of the
// cache, completes no more jobs and returns no misses; Resolve reports
// the interruption.
func (p *Plan) local(ctx context.Context) []*Job {
	var misses []*Job
	for _, u := range p.uniq {
		if ctx.Err() != nil {
			return nil
		}
		if res, ok := p.cached(u); ok {
			p.claim(u) // the plan is new: nothing else has completed u
			p.localHits++
			p.finish(u, res, Trace{}, true, JobEvent{Worker: -1})
			continue
		}
		misses = append(misses, u)
	}
	return misses
}

// cached is the local tier's one hit rule: the result must be cached,
// and for a record_trace job its trace too — the rule the fabric's
// lookup endpoint applies. A job whose trace is missing or torn
// re-simulates, which restores the trace.
func (p *Plan) cached(u *Job) (*JobResult, bool) {
	c := p.e.Cache
	if c == nil {
		return nil, false
	}
	res, ok, err := c.Get(u.Key)
	if ok && u.Spec.RecordTrace {
		_, ok, err = c.GetTrace(u.Key)
	}
	if err != nil {
		p.e.Obs.Logger().Warn("campaign cache read failed; re-simulating", "key", u.Key[:12], "err", err)
	}
	return res, ok
}

// claim marks u completed, reporting whether this is its first result.
// Later results (steal races, volunteered lease results) are dropped:
// determinism makes them byte-identical anyway.
func (p *Plan) claim(u *Job) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if u.done {
		return false
	}
	u.done = true
	p.left--
	return true
}

// Complete finishes u with a result resolved by another node — a peer's
// cache or a leased worker — unless u already completed, and reports
// whether it did. The result (and its trace, when it parsed) fills the
// local cache; a failed fill is only logged, because the resolving node
// holds the durable copy. cached reports that no simulation ran for u
// in this campaign.
func (p *Plan) Complete(u *Job, res *JobResult, tr Trace, cached bool) bool {
	if !p.claim(u) {
		return false
	}
	if c := p.e.Cache; c != nil {
		log := p.e.Obs.Logger()
		if tr.Err != nil {
			log.Warn("campaign: dropping a trace that does not parse", "key", u.Key[:12], "err", tr.Err)
		} else if tr.CSV != nil {
			if err := c.PutTrace(u.Key, tr.CSV); err != nil {
				log.Warn("campaign: trace cache fill failed", "key", u.Key[:12], "err", err)
			}
		}
		if err := c.Put(u.Key, res); err != nil {
			log.Warn("campaign: cache fill failed", "key", u.Key[:12], "err", err)
		}
	}
	p.finish(u, res, tr, cached, JobEvent{Worker: -1})
	return true
}

// finish delivers a claimed job: result fill, lake projection, campaign
// counters and JobDone. ev carries the pool shard and start time.
func (p *Plan) finish(u *Job, res *JobResult, tr Trace, cached bool, ev JobEvent) {
	for _, i := range u.Indices {
		p.results[i] = res
	}
	p.met.jobs.Inc()
	if cached {
		p.met.hits.Inc()
	} else {
		p.met.misses.Inc()
	}
	p.project(u, res, tr, cached)
	ev.Index, ev.Indices, ev.Spec, ev.Result, ev.Cached = u.Indices[0], u.Indices, &u.Spec, res, cached
	p.done(ev)
}

// project appends u's result row to the lake, plus its trace rows when
// u was simulated in this campaign: a trace lands in the lake once, not
// once per campaign that reads it back. The lake is best-effort: a
// failed append is logged and counted (so operators can alert on
// analytics loss) and the job still succeeds, since its result lives in
// the cache regardless.
func (p *Plan) project(u *Job, res *JobResult, tr Trace, cached bool) {
	lw := p.e.Lake
	if lw == nil {
		return
	}
	log := p.e.Obs.Logger()
	if err := lw.AppendResult(LakeResultRow(p.lakeCampaign, &u.Spec, u.Key, res, cached)); err != nil {
		p.met.lakeAppendF.Inc()
		log.Warn("lake append failed", "key", u.Key[:12], "err", err)
	}
	switch {
	case cached: // the campaign that simulated u projected its trace
	case tr.Err != nil:
		p.met.lakeAppendF.Inc() // the trace's rows are lost; Complete logged why
	case len(tr.Points) > 0:
		if err := lw.AppendTrace(lakeTraceRows(p.lakeCampaign, u.Key, tr.Points)...); err != nil {
			p.met.lakeAppendF.Inc()
			log.Warn("lake trace append failed", "key", u.Key[:12], "err", err)
		}
	}
}

// done reports one job event to Hooks.JobDone, serialized across
// goroutines in completion order.
func (p *Plan) done(ev JobEvent) {
	if p.e.Hooks.JobDone == nil {
		return
	}
	p.hookMu.Lock()
	defer p.hookMu.Unlock()
	p.e.Hooks.JobDone(ev)
}

// flush seals buffered lake rows into segments so a finished (or
// interrupted) campaign leaves the lake scannable.
func (p *Plan) flush() {
	if p.e.Lake == nil {
		return
	}
	if err := p.e.Lake.Flush(); err != nil {
		p.met.lakeFlushF.Inc()
		p.e.Obs.Logger().Warn("lake flush failed", "err", err)
	}
}

// Simulate runs jobs on the Engine's sharded simulation pool and
// returns the first job failure. Jobs are partitioned round-robin
// across the shards, which keeps the assignment deterministic; results
// are bit-identical either way, so this only shapes wall-clock. Each
// result is checkpointed to the cache before it is reported, so a
// result the caller saw survives an interrupt, and a failed checkpoint
// fails the job. A cancelled ctx stops the shards between jobs.
func (p *Plan) Simulate(ctx context.Context, jobs []*Job) error {
	if len(jobs) == 0 {
		return nil
	}
	e := p.e
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))
	kernelWorkers := e.KernelWorkers
	if kernelWorkers == 0 {
		kernelWorkers = max(1, runtime.GOMAXPROCS(0)/workers)
	}
	kernelWorkers = max(kernelWorkers, 1)
	o := e.Obs
	// Inner runs share the metrics registry (per-stage histograms under
	// campaign load) but stay out of the span stream and log, which
	// track the campaign itself.
	var inner *obs.Observer
	if o.Enabled() && o.Metrics != nil {
		inner = &obs.Observer{Metrics: o.Metrics}
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(jobs); i += workers {
				if ctx.Err() != nil {
					return
				}
				u := jobs[i]
				ev := JobEvent{Index: u.Indices[0], Indices: u.Indices, Spec: &u.Spec,
					Worker: w, Start: time.Now()}
				p.met.inflight.Add(1)
				res, points, traceCSV, err := u.Spec.run(kernelWorkers, inner)
				p.met.inflight.Add(-1)
				if err == nil {
					err = p.checkpoint(u.Key, res, traceCSV)
				}
				if err != nil {
					ev.Err = fmt.Errorf("campaign: job %d (%s): %w", u.Indices[0], u.Key[:12], err)
					errMu.Lock()
					if firstErr == nil {
						firstErr = ev.Err
					}
					errMu.Unlock()
					p.done(ev)
					return
				}
				p.met.jobH.Observe(time.Since(ev.Start).Seconds())
				if o.Enabled() {
					o.Tracer().Span("job", "campaign", w+1, ev.Start, map[string]any{
						"key": u.Key[:12], "mae_m": res.MAE, "crashed": res.Crashed,
					})
				}
				if p.claim(u) {
					p.mu.Lock()
					p.simulated++
					p.mu.Unlock()
					p.finish(u, res, Trace{CSV: traceCSV, Points: points}, false, ev)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// checkpoint writes a simulated result (trace first) to the cache.
func (p *Plan) checkpoint(key string, res *JobResult, traceCSV []byte) error {
	c := p.e.Cache
	if c == nil {
		return nil
	}
	if traceCSV != nil {
		if err := c.PutTrace(key, traceCSV); err != nil {
			return err
		}
	}
	return c.Put(key, res)
}
