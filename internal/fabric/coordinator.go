package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"hsas/internal/campaign"
	"hsas/internal/lake"
	"hsas/internal/obs"
)

// CoordinatorConfig configures a campaign coordinator.
type CoordinatorConfig struct {
	// Workers are the base URLs of the fleet's worker nodes
	// (e.g. "http://node3:8091"). At least one is required.
	Workers []string
	// Cache is the coordinator's local cache tier: consulted first,
	// filled on every remote hit and every lease result, and the store
	// the caller's Engine-compatible results are checkpointed to. Nil
	// uses an in-memory cache.
	Cache campaign.Cache
	// Lake, when set, receives one ResultRow per completed job, and
	// TraceRows for a record_trace job simulated by this campaign,
	// exactly as Engine.Run would append them.
	Lake *lake.Writer
	// LakeCampaign labels lake rows; empty defaults to "adhoc".
	LakeCampaign string
	// Obs receives coordinator logs and fabric metrics.
	Obs *obs.Observer
	// Hooks observe job completion exactly like Engine.Hooks: JobDone
	// fires once per unique job, serialized, with Cached reporting
	// whether any cache tier (local, remote peer, or worker-local)
	// avoided a fresh simulation.
	Hooks campaign.Hooks

	// BatchSize caps jobs per lease request (default 64). One request
	// can carry thousands of jobs; smaller batches re-balance faster.
	BatchSize int
	// LeaseTTL is the per-line liveness deadline on a lease stream: if
	// a worker streams nothing for this long the lease is abandoned
	// and its unfinished jobs re-queue (default 2m — comfortably above
	// one closed-loop simulation).
	LeaseTTL time.Duration
	// RequestTimeout is the per-line liveness deadline on a federated
	// cache lookup stream, re-armed on every line like LeaseTTL.
	// Default 10s.
	RequestTimeout time.Duration
	// MaxRetries is the number of consecutive transport failures
	// before a worker is declared dead and abandoned (default 3).
	MaxRetries int
	// RetryBase is the base backoff between retries, doubled per
	// attempt with ±50% deterministic jitter (default 250ms).
	RetryBase time.Duration
	// StealAfter is how long a job may be leased out before an idle
	// worker steals it (races the original holder; first result wins,
	// and determinism makes both results identical). Default 30s.
	StealAfter time.Duration

	// LocalFallback simulates any jobs still unresolved after every
	// worker died on the local simulation pool (Engine.Run's) instead
	// of failing the campaign.
	LocalFallback bool
	// LocalWorkers / LocalKernelWorkers shape the fallback pool, as
	// Engine.Workers / Engine.KernelWorkers.
	LocalWorkers       int
	LocalKernelWorkers int

	// Client overrides the HTTP client (tests); nil uses a default.
	Client *http.Client
}

// FabricStats summarizes one distributed run, splitting the cache-hit
// and simulation totals by which tier resolved each unique job.
type FabricStats struct {
	Jobs   int `json:"jobs"`
	Unique int `json:"unique"`
	// LocalHits were served by the coordinator's own cache.
	LocalHits int `json:"local_hits"`
	// RemoteHits were served by a peer's federated cache endpoint.
	RemoteHits int `json:"remote_hits"`
	// WorkerCacheHits were resolved by a leased worker's local cache.
	WorkerCacheHits int `json:"worker_cache_hits"`
	// RemoteSimulated were freshly simulated by a leased worker.
	RemoteSimulated int `json:"remote_simulated"`
	// FallbackSimulated were simulated by the local fallback engine.
	FallbackSimulated int `json:"fallback_simulated"`
	// Requeued counts jobs returned to the queue by failed or expired
	// leases; Stolen counts steal re-leases of slow jobs; Retries
	// counts lease transport retries; DeadWorkers counts workers
	// abandoned after MaxRetries consecutive failures.
	Requeued    int `json:"requeued"`
	Stolen      int `json:"stolen"`
	Retries     int `json:"retries"`
	DeadWorkers int `json:"dead_workers"`
}

// RunStats folds the tiered totals down to Engine-compatible stats:
// every tier that avoided a fresh simulation counts as a cache hit.
func (s FabricStats) RunStats() campaign.RunStats {
	return campaign.RunStats{
		Jobs:      s.Jobs,
		Unique:    s.Unique,
		CacheHits: s.LocalHits + s.RemoteHits + s.WorkerCacheHits,
		Simulated: s.RemoteSimulated + s.FallbackSimulated,
	}
}

// Coordinator shards campaign jobs across a fleet of fabric workers,
// resolving each unique job through the federated cache tier first.
// It implements campaign.Runner, so lkas-serve can swap it in for the
// local engine without the API layer noticing.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client
	met    coordMetrics
	// eng carries the campaign pipeline's settings: the local cache
	// tier, lake, hooks, and the fallback simulation pool.
	eng *campaign.Engine
}

type coordMetrics struct {
	reg            *obs.Registry
	leasesInflight *obs.Gauge
	remoteHits     *obs.Counter
	remoteMisses   *obs.Counter
	remoteFills    *obs.Counter
	requeues       *obs.Counter
	retries        *obs.Counter
	steals         *obs.Counter
	deadWorkers    *obs.Counter
}

// workerJobs / leaseSeconds are the per-worker series (labeled by the
// worker's URL); the registry's get-or-create semantics make repeated
// lookups cheap and idempotent.
func (m *coordMetrics) workerJobs(wurl string) *obs.Counter {
	return m.reg.Counter("hsas_fabric_worker_jobs_total",
		"jobs completed per worker node", obs.L("worker", wurl))
}

func (m *coordMetrics) leaseSeconds(wurl string) *obs.Histogram {
	return m.reg.Histogram("hsas_fabric_lease_seconds",
		"wall time per lease request, per worker node",
		[]float64{0.05, 0.25, 1, 5, 15, 60, 300}, obs.L("worker", wurl))
}

// NewCoordinator validates cfg (at least one parseable worker URL) and
// returns a Coordinator.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fabric: coordinator needs at least one worker URL")
	}
	for _, raw := range cfg.Workers {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fabric: invalid worker URL %q", raw)
		}
	}
	if cfg.Cache == nil {
		cfg.Cache = campaign.NewMemCache()
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Minute
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 250 * time.Millisecond
	}
	if cfg.StealAfter <= 0 {
		cfg.StealAfter = 30 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	reg := cfg.Obs.Registry()
	return &Coordinator{cfg: cfg, client: client, met: coordMetrics{
		reg:            reg,
		leasesInflight: reg.Gauge("hsas_fabric_leases_inflight", "lease requests currently streaming"),
		remoteHits:     reg.Counter("hsas_fabric_remote_cache_hits_total", "unique jobs resolved by a peer's federated cache"),
		remoteMisses:   reg.Counter("hsas_fabric_remote_cache_misses_total", "unique jobs no peer's federated cache could serve"),
		remoteFills:    reg.Counter("hsas_fabric_remote_cache_fills_total", "local cache fills from remote results (read-through)"),
		requeues:       reg.Counter("hsas_fabric_requeues_total", "jobs re-queued after a failed or expired lease"),
		retries:        reg.Counter("hsas_fabric_retries_total", "lease transport retries"),
		steals:         reg.Counter("hsas_fabric_steals_total", "jobs stolen from long-outstanding leases"),
		deadWorkers:    reg.Counter("hsas_fabric_dead_workers_total", "workers abandoned after consecutive failures"),
	}, eng: &campaign.Engine{
		Workers:       cfg.LocalWorkers,
		KernelWorkers: cfg.LocalKernelWorkers,
		Cache:         cfg.Cache,
		Lake:          cfg.Lake,
		LakeCampaign:  cfg.LakeCampaign,
		Obs:           cfg.Obs,
		Hooks:         cfg.Hooks,
	}}, nil
}

// Run implements campaign.Runner: Engine.Run semantics (submission
// order, dedup, bit-identical results) over the distributed fleet.
func (c *Coordinator) Run(ctx context.Context, jobs []campaign.JobSpec) ([]*campaign.JobResult, campaign.RunStats, error) {
	results, fs, err := c.RunFabric(ctx, jobs)
	return results, fs.RunStats(), err
}

// runState is the lease schedule of one run: pending is the FIFO of
// jobs not currently leased; leased tracks live leases for expiry
// re-queue and stealing. Completion is the plan's: a job the plan has
// completed is never leased again.
type runState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	plan    *campaign.Plan
	pending []*campaign.Job // awaiting lease (FIFO)
	inPend  map[*campaign.Job]bool
	leased  map[*campaign.Job]leaseInfo // current lease holder
	closed  bool
}

type leaseInfo struct {
	worker string
	since  time.Time
	stolen bool // this lease is already a steal; don't steal again
}

func newRunState(p *campaign.Plan, pending []*campaign.Job) *runState {
	s := &runState{
		plan:    p,
		pending: pending,
		inPend:  map[*campaign.Job]bool{},
		leased:  map[*campaign.Job]leaseInfo{},
	}
	for _, u := range pending {
		s.inPend[u] = true
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// takeBatch pops up to n pending jobs for worker w; when the queue is
// empty it steals up to n long-outstanding jobs leased to OTHER
// workers (oldest first). Blocks until work is available, all jobs are
// done, or the state is closed. The second return is the number of
// stolen jobs in the batch.
func (s *runState) takeBatch(w string, n int, stealAfter time.Duration) ([]*campaign.Job, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.plan.Left() == 0 || s.closed {
			return nil, 0
		}
		var batch []*campaign.Job
		for len(batch) < n && len(s.pending) > 0 {
			u := s.pending[0]
			s.pending = s.pending[1:]
			delete(s.inPend, u)
			if s.plan.Done(u) {
				continue
			}
			batch = append(batch, u)
			s.leased[u] = leaseInfo{worker: w, since: time.Now()}
		}
		if len(batch) > 0 {
			return batch, 0
		}
		// Idle and nothing pending: steal stragglers from other
		// workers. Oldest leases first — those are the likeliest to be
		// stuck. A stolen lease is marked so a third worker doesn't
		// pile on.
		now := time.Now()
		for u, li := range s.leased {
			if li.worker == w || li.stolen || now.Sub(li.since) < stealAfter || s.plan.Done(u) {
				continue
			}
			batch = append(batch, u)
		}
		sort.Slice(batch, func(i, j int) bool {
			si, sj := s.leased[batch[i]], s.leased[batch[j]]
			if !si.since.Equal(sj.since) {
				return si.since.Before(sj.since)
			}
			return batch[i].Key < batch[j].Key
		})
		if len(batch) > n {
			batch = batch[:n]
		}
		if len(batch) > 0 {
			for _, u := range batch {
				s.leased[u] = leaseInfo{worker: w, since: now, stolen: true}
			}
			return batch, len(batch)
		}
		s.cond.Wait()
	}
}

// release drops a completed job's lease and wakes waiting workers.
func (s *runState) release(u *campaign.Job) {
	s.mu.Lock()
	delete(s.leased, u)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// requeue returns a job to the pending queue (lease failed/expired)
// unless it completed in the meantime or is now leased to a different
// worker (stolen while we were failing).
func (s *runState) requeue(u *campaign.Job, fromWorker string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inPend[u] || s.plan.Done(u) {
		return false
	}
	if li, ok := s.leased[u]; ok && li.worker != fromWorker {
		return false
	}
	delete(s.leased, u)
	s.pending = append(s.pending, u)
	s.inPend[u] = true
	s.cond.Broadcast()
	return true
}

func (s *runState) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fabricRun is one RunFabric's resolution of the local tier's misses:
// the plan, its lease schedule and the tiered tallies.
type fabricRun struct {
	c  *Coordinator
	p  *campaign.Plan
	st *runState

	mu      sync.Mutex // guards stats and lastErr
	stats   FabricStats
	lastErr error
}

// RunFabric executes the jobs across the fleet and returns results in
// submission order plus the tiered stats. Results are bit-identical to
// a single-node Engine.Run over the same jobs: both run on the campaign
// pipeline (campaign.Engine.Resolve) and differ only in how they
// resolve the local cache tier's misses.
func (c *Coordinator) RunFabric(ctx context.Context, jobs []campaign.JobSpec) ([]*campaign.JobResult, FabricStats, error) {
	r := &fabricRun{c: c, stats: FabricStats{Jobs: len(jobs)}}
	p, err := c.eng.Resolve(ctx, jobs, r.resolve)
	r.stats.Unique, r.stats.LocalHits, r.stats.FallbackSimulated = p.Unique(), p.LocalHits(), p.Simulated()
	stats := r.stats
	if err != nil || len(jobs) == 0 {
		return p.Results(), stats, err
	}
	c.cfg.Obs.Logger().Info("fabric: campaign complete",
		"jobs", stats.Jobs, "unique", stats.Unique,
		"local_hits", stats.LocalHits, "remote_hits", stats.RemoteHits,
		"worker_cache_hits", stats.WorkerCacheHits, "remote_simulated", stats.RemoteSimulated,
		"fallback_simulated", stats.FallbackSimulated,
		"requeued", stats.Requeued, "stolen", stats.Stolen,
		"retries", stats.Retries, "dead_workers", stats.DeadWorkers)
	return p.Results(), stats, nil
}

// resolve resolves the misses through the remote cache tier, then
// leases, then — if every worker died and LocalFallback is set — the
// campaign pipeline's own simulation pool.
func (r *fabricRun) resolve(ctx context.Context, p *campaign.Plan, misses []*campaign.Job) error {
	c := r.c
	r.p, r.st = p, newRunState(p, misses)
	if len(misses) == 0 || ctx.Err() != nil {
		return nil
	}
	if err := r.lookupAll(ctx, misses); err != nil {
		return err
	}
	if p.Left() > 0 && ctx.Err() == nil {
		r.leaseAll(ctx)
	}
	rem := p.Remaining()
	if len(rem) == 0 || ctx.Err() != nil {
		return nil // Resolve reports an interrupt
	}
	lastErr := r.lastErr
	if !c.cfg.LocalFallback {
		if lastErr == nil {
			lastErr = errors.New("all workers unavailable")
		}
		return fmt.Errorf("fabric: %d/%d unique jobs unresolved: %w", len(rem), p.Unique(), lastErr)
	}
	c.cfg.Obs.Logger().Warn("fabric: falling back to local simulation", "jobs", len(rem), "last_err", lastErr)
	if err := p.Simulate(ctx, rem); err != nil {
		return fmt.Errorf("fabric: local fallback: %w", err)
	}
	return nil
}

// complete finishes u with a remote result and releases its lease.
func (r *fabricRun) complete(u *campaign.Job, res *campaign.JobResult, tr campaign.Trace, cached bool) bool {
	if !r.p.Complete(u, res, tr, cached) {
		return false
	}
	r.st.release(u)
	return true
}

// lookupAll is the remote cache tier: one streamed lookup per peer, all
// at once, each carrying every miss (read-through with local fill;
// first result wins when several peers hold a key).
func (r *fabricRun) lookupAll(ctx context.Context, misses []*campaign.Job) error {
	c := r.c
	req := lookupRequest{Keys: make([]string, len(misses)), Trace: make([]bool, len(misses))}
	for i, u := range misses {
		req.Keys[i], req.Trace[i] = u.Key, u.Spec.RecordTrace
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("fabric: encoding cache lookup: %w", err)
	}
	var wg sync.WaitGroup
	for _, wurl := range c.cfg.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := r.lookup(ctx, wurl, body)
			r.mu.Lock()
			r.stats.RemoteHits += n
			r.mu.Unlock()
			if err != nil {
				c.cfg.Obs.Logger().Info("fabric: cache lookup incomplete", "worker", wurl, "hits", n, "err", err)
			}
		}()
	}
	wg.Wait()
	c.met.remoteHits.Add(int64(r.stats.RemoteHits))
	c.met.remoteFills.Add(int64(r.stats.RemoteHits))
	c.met.remoteMisses.Add(int64(len(misses) - r.stats.RemoteHits))
	return nil
}

// lookup asks one peer for every key in body (an encoded
// lookupRequest) and completes the hits it streams back. A hit counts
// only for a key of this campaign, and for a record_trace job only
// with a trace that parses; anything else stays a miss for the lease
// phase. Returns the jobs newly completed by this peer.
func (r *fabricRun) lookup(ctx context.Context, wurl string, body []byte) (int, error) {
	n := 0
	err := r.c.stream(ctx, wurl+"/v1/cache/lookup", body, r.c.cfg.RequestTimeout, func(line leaseLine) {
		u := r.p.Job(line.Key)
		if u == nil || line.Result == nil {
			return
		}
		var tr campaign.Trace
		if u.Spec.RecordTrace {
			if tr = campaign.ParseTrace(line.Trace); tr.Err != nil {
				return
			}
		}
		if r.complete(u, line.Result, tr, true) {
			n++
		}
	})
	return n, err
}

// leaseAll leases the remaining misses across the fleet. Each worker
// gets a goroutine that loops taking batches; idle workers steal from
// stragglers; a worker exceeding MaxRetries consecutive transport
// failures is abandoned.
func (r *fabricRun) leaseAll(ctx context.Context) {
	// leaseCtx scopes every lease request to this run: once the last
	// job completes it is canceled so leases still streaming (a stolen
	// straggler's original holder, a hung worker) are torn down instead
	// of blocking completion until their TTL.
	leaseCtx, leaseCancel := context.WithCancel(ctx)
	defer leaseCancel()
	// Wake takeBatch waiters periodically so steal-age checks and ctx
	// cancellation are re-evaluated even when nothing completes.
	tickCtx, tickCancel := context.WithCancel(ctx)
	go func() {
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-tickCtx.Done():
				r.st.close()
				return
			case <-t.C:
				if r.p.Left() == 0 {
					leaseCancel()
				}
				r.st.cond.Broadcast()
			}
		}
	}()
	var wg sync.WaitGroup
	for _, wurl := range r.c.cfg.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.leaseLoop(ctx, leaseCtx, wurl)
		}()
	}
	wg.Wait()
	tickCancel()
	r.st.close()
}

// leaseLoop feeds one worker batches until the campaign is done, the
// context ends, or the worker is abandoned.
func (r *fabricRun) leaseLoop(ctx, leaseCtx context.Context, wurl string) {
	c, o := r.c, r.c.cfg.Obs
	fails := 0
	for ctx.Err() == nil {
		batch, stolen := r.st.takeBatch(wurl, c.cfg.BatchSize, c.cfg.StealAfter)
		if len(batch) == 0 {
			return // all done or closed
		}
		if stolen > 0 {
			c.met.steals.Add(int64(stolen))
			r.mu.Lock()
			r.stats.Stolen += stolen
			r.mu.Unlock()
			o.Logger().Info("fabric: stealing stragglers", "worker", wurl, "jobs", stolen)
		}
		leaseStart := time.Now()
		nDone, err := r.lease(leaseCtx, wurl, batch)
		c.met.leaseSeconds(wurl).Observe(time.Since(leaseStart).Seconds())
		if nDone > 0 {
			c.met.workerJobs(wurl).Add(int64(nDone))
		}
		// Re-queue whatever this lease didn't finish, whether it failed
		// or expired mid-stream.
		requeued := 0
		for _, u := range batch {
			if r.st.requeue(u, wurl) {
				requeued++
			}
		}
		if requeued > 0 {
			c.met.requeues.Add(int64(requeued))
			r.mu.Lock()
			r.stats.Requeued += requeued
			r.mu.Unlock()
		}
		if r.p.Left() == 0 || ctx.Err() != nil {
			// A lease torn down because the campaign finished elsewhere
			// is not a worker failure.
			return
		}
		if err == nil {
			fails = 0
			continue
		}
		r.mu.Lock()
		r.lastErr = fmt.Errorf("fabric: worker %s: %w", wurl, err)
		r.mu.Unlock()
		if nDone > 0 {
			fails = 0 // it made progress; don't count toward death
		} else {
			fails++
		}
		if fails > c.cfg.MaxRetries {
			c.met.deadWorkers.Inc()
			r.mu.Lock()
			r.stats.DeadWorkers++
			r.mu.Unlock()
			o.Logger().Warn("fabric: abandoning worker", "worker", wurl, "fails", fails, "err", err)
			return
		}
		c.met.retries.Inc()
		r.mu.Lock()
		r.stats.Retries++
		r.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff(c.cfg.RetryBase, fails, wurl)):
		}
	}
}

// lease POSTs one batch to a worker and consumes the NDJSON result
// stream, completing jobs as lines arrive. The stream's per-line
// watchdog runs at LeaseTTL, so a hung or killed worker surfaces as an
// error here and the caller re-queues. Returns the number of jobs newly
// completed by this lease.
func (r *fabricRun) lease(ctx context.Context, wurl string, batch []*campaign.Job) (int, error) {
	c := r.c
	specs := make([]campaign.JobSpec, len(batch))
	for i, u := range batch {
		specs[i] = u.Spec
	}
	body, err := json.Marshal(leaseRequest{Campaign: c.eng.LakeCampaign, Jobs: specs})
	if err != nil {
		return 0, fmt.Errorf("encoding lease: %w", err)
	}

	c.met.leasesInflight.Add(1)
	defer c.met.leasesInflight.Add(-1)
	nDone := 0
	err = c.stream(ctx, wurl+"/v1/lease", body, c.cfg.LeaseTTL, func(line leaseLine) {
		if line.Error != "" || line.Result == nil {
			return
		}
		// A key outside this lease is a volunteered result — e.g. the
		// worker finished a batch whose lease already expired and was
		// re-queued. Determinism makes any worker's result canonical,
		// so accept it as long as the key belongs to this campaign.
		u := r.p.Job(line.Key)
		if u == nil {
			return
		}
		var tr campaign.Trace
		if len(line.Trace) > 0 {
			tr = campaign.ParseTrace(line.Trace)
		}
		// A line the worker served from its own cache is a cached
		// completion, exactly like a peer's lookup hit.
		if r.complete(u, line.Result, tr, line.Cached) {
			nDone++
			r.mu.Lock()
			if line.Cached {
				r.stats.WorkerCacheHits++
			} else {
				r.stats.RemoteSimulated++
			}
			r.mu.Unlock()
		}
	})
	if err != nil {
		return nDone, fmt.Errorf("lease: %w", err)
	}
	return nDone, nil
}

// stream POSTs body to url and decodes the NDJSON leaseLine response,
// calling onLine for each line before the done trailer. ttl is a
// per-line watchdog: armed before the request (covering connect and
// first byte) and re-armed on every line, so a peer that stalls is cut
// off within one ttl however long the whole stream runs.
func (c *Coordinator) stream(ctx context.Context, url string, body []byte, ttl time.Duration, onLine func(leaseLine)) error {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")

	watchdog := time.AfterFunc(ttl, cancel)
	defer watchdog.Stop()
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("request: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("rejected: %s: %s", resp.Status, bytes.TrimSpace(b))
	}

	dec := json.NewDecoder(resp.Body)
	for {
		var line leaseLine
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				return errors.New("stream ended without trailer")
			}
			if sctx.Err() != nil && ctx.Err() == nil {
				return fmt.Errorf("expired (no line for %s)", ttl)
			}
			return fmt.Errorf("stream: %w", err)
		}
		watchdog.Reset(ttl)
		if line.Done {
			if line.Error != "" {
				return fmt.Errorf("worker engine: %s", line.Error)
			}
			return nil
		}
		onLine(line)
	}
}

// backoff returns the retry delay for attempt n (1-based): base·2^(n-1)
// with ±50% deterministic jitter derived from the worker URL, so a
// fleet of coordinators retrying the same worker doesn't thundering-herd
// in lockstep yet tests stay reproducible.
func backoff(base time.Duration, attempt int, seed string) time.Duration {
	d := base
	for i := 1; i < attempt && d < 30*time.Second; i++ {
		d *= 2
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	var h uint32 = 2166136261
	for i := 0; i < len(seed); i++ {
		h = (h ^ uint32(seed[i])) * 16777619
	}
	// jitter in [-50%, +50%)
	frac := float64(h%1000)/1000.0 - 0.5
	return d + time.Duration(float64(d)*frac)
}
