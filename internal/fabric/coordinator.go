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
	"hsas/internal/sim"
	"hsas/internal/trace"
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
	// Lake, when set, receives one ResultRow per completed job (and
	// TraceRows for record_trace jobs), exactly as Engine.Run would
	// append them.
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
	// worker died on a local in-process engine instead of failing the
	// campaign.
	LocalFallback bool
	// LocalWorkers / LocalKernelWorkers shape the fallback engine.
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
	lakeAppendF    *obs.Counter
	lakeFlushF     *obs.Counter
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
	lakeAppendF, lakeFlushF := campaign.LakeFailureCounters(reg)
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
		lakeAppendF:    lakeAppendF,
		lakeFlushF:     lakeFlushF,
	}}, nil
}

// Run implements campaign.Runner: Engine.Run semantics (submission
// order, dedup, bit-identical results) over the distributed fleet.
func (c *Coordinator) Run(ctx context.Context, jobs []campaign.JobSpec) ([]*campaign.JobResult, campaign.RunStats, error) {
	results, fs, err := c.RunFabric(ctx, jobs)
	return results, fs.RunStats(), err
}

// job is one unique (normalized, addressed) unit of fabric work.
type job struct {
	spec    campaign.JobSpec
	key     string
	indices []int
}

// runState is the coordinator's shared scheduling state. pending is
// the FIFO of keys not currently leased; outstanding tracks live
// leases for expiry re-queue and stealing.
type runState struct {
	mu   sync.Mutex
	cond *sync.Cond

	byKey   map[string]*job
	pending []string // keys awaiting lease (FIFO)
	inPend  map[string]bool
	leased  map[string]leaseInfo // key → current lease holder
	done    map[string]bool
	remain  int // unique jobs not yet done
	closed  bool
}

type leaseInfo struct {
	worker string
	since  time.Time
	stolen bool // this lease is already a steal; don't steal again
}

func newRunState() *runState {
	s := &runState{
		byKey:  map[string]*job{},
		inPend: map[string]bool{},
		leased: map[string]leaseInfo{},
		done:   map[string]bool{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// takeBatch pops up to n pending jobs for worker w; when the queue is
// empty it steals up to n long-outstanding jobs leased to OTHER
// workers (oldest first). Blocks until work is available, all jobs are
// done, or the state is closed. The second return is the number of
// stolen jobs in the batch.
func (s *runState) takeBatch(w string, n int, stealAfter time.Duration) ([]*job, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.remain == 0 || s.closed {
			return nil, 0
		}
		var batch []*job
		for len(batch) < n && len(s.pending) > 0 {
			key := s.pending[0]
			s.pending = s.pending[1:]
			delete(s.inPend, key)
			if s.done[key] {
				continue
			}
			batch = append(batch, s.byKey[key])
			s.leased[key] = leaseInfo{worker: w, since: time.Now()}
		}
		if len(batch) > 0 {
			return batch, 0
		}
		// Idle and nothing pending: steal stragglers from other
		// workers. Oldest leases first — those are the likeliest to be
		// stuck. A stolen lease is marked so a third worker doesn't
		// pile on.
		var steal []string
		now := time.Now()
		for key, li := range s.leased {
			if s.done[key] || li.worker == w || li.stolen || now.Sub(li.since) < stealAfter {
				continue
			}
			steal = append(steal, key)
		}
		sort.Slice(steal, func(i, j int) bool {
			si, sj := s.leased[steal[i]], s.leased[steal[j]]
			if !si.since.Equal(sj.since) {
				return si.since.Before(sj.since)
			}
			return steal[i] < steal[j]
		})
		if len(steal) > n {
			steal = steal[:n]
		}
		if len(steal) > 0 {
			for _, key := range steal {
				batch = append(batch, s.byKey[key])
				s.leased[key] = leaseInfo{worker: w, since: now, stolen: true}
			}
			return batch, len(batch)
		}
		s.cond.Wait()
	}
}

// markDone records a completed job if it isn't already done, releasing
// its lease. Returns false for duplicates (steal races, unleased
// results) — which are accepted but ignored.
func (s *runState) markDone(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done[key] {
		return false
	}
	if _, ok := s.byKey[key]; !ok {
		return false // result for a key we never asked for
	}
	s.done[key] = true
	delete(s.leased, key)
	s.remain--
	s.cond.Broadcast()
	return true
}

// requeue returns a job to the pending queue (lease failed/expired)
// unless it completed in the meantime or is now leased to a different
// worker (stolen while we were failing).
func (s *runState) requeue(key, fromWorker string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done[key] || s.inPend[key] {
		return false
	}
	if li, ok := s.leased[key]; ok && li.worker != fromWorker {
		return false
	}
	delete(s.leased, key)
	s.pending = append(s.pending, key)
	s.inPend[key] = true
	s.cond.Broadcast()
	return true
}

// remaining returns the not-yet-done jobs (for fallback/error paths).
func (s *runState) remaining() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*job
	for key, j := range s.byKey {
		if !s.done[key] {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].indices[0] < out[j].indices[0] })
	return out
}

func (s *runState) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *runState) allDone() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remain == 0
}

// RunFabric executes the jobs across the fleet and returns results in
// submission order plus the tiered stats. Results are bit-identical to
// a single-node Engine.Run over the same jobs.
func (c *Coordinator) RunFabric(ctx context.Context, jobs []campaign.JobSpec) ([]*campaign.JobResult, FabricStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := c.cfg.Obs
	stats := FabricStats{Jobs: len(jobs)}
	results := make([]*campaign.JobResult, len(jobs))
	if len(jobs) == 0 {
		return results, stats, nil
	}

	// Phase 0: normalize, address and dedup — the same front door as
	// Engine.Run, so an invalid spec fails before any network traffic.
	st := newRunState()
	var uniq []*job
	for i := range jobs {
		n, err := jobs[i].Normalize()
		if err != nil {
			return results, stats, fmt.Errorf("fabric: job %d: %w", i, err)
		}
		key, err := n.Key()
		if err != nil {
			return results, stats, fmt.Errorf("fabric: job %d: %w", i, err)
		}
		if u, ok := st.byKey[key]; ok {
			u.indices = append(u.indices, i)
			continue
		}
		u := &job{spec: n, key: key, indices: []int{i}}
		st.byKey[key] = u
		uniq = append(uniq, u)
	}
	stats.Unique = len(uniq)
	st.remain = len(uniq)

	lakeCampaign := c.cfg.LakeCampaign
	if lakeCampaign == "" {
		lakeCampaign = "adhoc"
	}
	var lakeMu sync.Mutex
	appendLake := func(u *job, res *campaign.JobResult, cached bool, tr receivedTrace) {
		if c.cfg.Lake == nil {
			return
		}
		lakeMu.Lock()
		defer lakeMu.Unlock()
		if err := c.cfg.Lake.AppendResult(campaign.LakeResultRow(lakeCampaign, &u.spec, u.key, res, cached)); err != nil {
			c.met.lakeAppendF.Inc()
			o.Logger().Warn("fabric: lake append failed", "key", u.key[:12], "err", err)
		}
		switch {
		case tr.err != nil:
			c.met.lakeAppendF.Inc() // the trace's rows are lost; complete logged why
		case tr.csv != nil:
			if err := c.cfg.Lake.AppendTrace(campaign.LakeTraceRows(lakeCampaign, u.key, tr.pts)...); err != nil {
				c.met.lakeAppendF.Inc()
				o.Logger().Warn("fabric: lake trace append failed", "key", u.key[:12], "err", err)
			}
		}
	}
	defer func() {
		if c.cfg.Lake != nil {
			if err := c.cfg.Lake.Flush(); err != nil {
				c.met.lakeFlushF.Inc()
				o.Logger().Warn("fabric: lake flush failed", "err", err)
			}
		}
	}()

	var hookMu sync.Mutex
	fire := func(ev campaign.JobEvent) {
		hookMu.Lock()
		defer hookMu.Unlock()
		if c.cfg.Hooks.JobDone != nil {
			c.cfg.Hooks.JobDone(ev)
		}
	}
	fill := func(u *job, res *campaign.JobResult) {
		for _, i := range u.indices {
			results[i] = res
		}
	}
	// complete checkpoints a resolved job (cache fill, lake row, hook)
	// and marks it done. Duplicate results — steal races, a worker
	// volunteering a key it wasn't leased — are dropped after the
	// first: determinism makes them byte-identical anyway. A trace
	// that failed to parse is not cached; the result still is.
	complete := func(u *job, res *campaign.JobResult, tr receivedTrace, cached bool) bool {
		if !st.markDone(u.key) {
			return false
		}
		if tr.err != nil {
			o.Logger().Warn("fabric: dropping a trace that does not parse", "key", u.key[:12], "err", tr.err)
		} else if tr.csv != nil {
			if err := c.cfg.Cache.PutTrace(u.key, tr.csv); err != nil {
				o.Logger().Warn("fabric: trace cache fill failed", "key", u.key[:12], "err", err)
			}
		}
		if err := c.cfg.Cache.Put(u.key, res); err != nil {
			o.Logger().Warn("fabric: cache fill failed", "key", u.key[:12], "err", err)
		}
		fill(u, res)
		appendLake(u, res, cached, tr)
		fire(campaign.JobEvent{Index: u.indices[0], Indices: u.indices, Spec: &u.spec,
			Result: res, Cached: cached, Worker: -1})
		return true
	}

	// Phase 1: local cache tier. Misses enter the pending lease queue
	// right away (in submission order); completions from later phases
	// mark them done and takeBatch skips done keys on pop.
	var misses []*job
	for _, u := range uniq {
		res, ok, err := c.cfg.Cache.Get(u.key)
		if err != nil {
			o.Logger().Warn("fabric: local cache read failed", "key", u.key[:12], "err", err)
		}
		if ok {
			if st.markDone(u.key) {
				stats.LocalHits++
				fill(u, res)
				appendLake(u, res, true, receivedTrace{})
				fire(campaign.JobEvent{Index: u.indices[0], Indices: u.indices, Spec: &u.spec,
					Result: res, Cached: true, Worker: -1})
			}
			continue
		}
		misses = append(misses, u)
		st.pending = append(st.pending, u.key)
		st.inPend[u.key] = true
	}

	// Phase 2: remote cache tier — one streamed lookup per peer, all at
	// once, each carrying every miss (read-through with local fill;
	// first result wins when several peers hold a key).
	var statMu sync.Mutex
	if len(misses) > 0 && ctx.Err() == nil {
		req := lookupRequest{Keys: make([]string, len(misses)), Trace: make([]bool, len(misses))}
		for i, u := range misses {
			req.Keys[i], req.Trace[i] = u.key, u.spec.RecordTrace
		}
		body, err := json.Marshal(req)
		if err != nil {
			return results, stats, fmt.Errorf("fabric: encoding cache lookup: %w", err)
		}
		var wg sync.WaitGroup
		for _, wurl := range c.cfg.Workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n, err := c.lookup(ctx, wurl, body, st, complete)
				statMu.Lock()
				stats.RemoteHits += n
				statMu.Unlock()
				if err != nil {
					o.Logger().Info("fabric: cache lookup incomplete", "worker", wurl, "hits", n, "err", err)
				}
			}()
		}
		wg.Wait()
		c.met.remoteHits.Add(int64(stats.RemoteHits))
		c.met.remoteFills.Add(int64(stats.RemoteHits))
		c.met.remoteMisses.Add(int64(len(misses) - stats.RemoteHits))
	}

	// Phase 3: lease the remaining misses across the fleet. Each
	// worker gets a goroutine that loops taking batches; idle workers
	// steal from stragglers; a worker exceeding MaxRetries consecutive
	// transport failures is abandoned.
	var lastErr error
	setErr := func(err error) {
		statMu.Lock()
		if err != nil {
			lastErr = err
		}
		statMu.Unlock()
	}
	if !st.allDone() && ctx.Err() == nil {
		// leaseCtx scopes every lease request to this run: once the
		// last job completes it is canceled so leases still streaming
		// (a stolen straggler's original holder, a hung worker) are
		// torn down instead of blocking completion until their TTL.
		leaseCtx, leaseCancel := context.WithCancel(ctx)
		defer leaseCancel()
		// Wake takeBatch waiters periodically so steal-age checks and
		// ctx cancellation are re-evaluated even when nothing completes.
		tickCtx, tickCancel := context.WithCancel(ctx)
		go func() {
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-tickCtx.Done():
					st.close()
					return
				case <-t.C:
					if st.allDone() {
						leaseCancel()
					}
					st.cond.Broadcast()
				}
			}
		}()

		var wg sync.WaitGroup
		for _, wurl := range c.cfg.Workers {
			wurl := wurl
			wg.Add(1)
			go func() {
				defer wg.Done()
				fails := 0
				for ctx.Err() == nil {
					batch, stolen := st.takeBatch(wurl, c.cfg.BatchSize, c.cfg.StealAfter)
					if len(batch) == 0 {
						return // all done or closed
					}
					if stolen > 0 {
						c.met.steals.Add(int64(stolen))
						statMu.Lock()
						stats.Stolen += stolen
						statMu.Unlock()
						o.Logger().Info("fabric: stealing stragglers", "worker", wurl, "jobs", stolen)
					}
					leaseStart := time.Now()
					nDone, err := c.lease(leaseCtx, wurl, batch, st, lakeCampaign, complete, &stats, &statMu)
					c.met.leaseSeconds(wurl).Observe(time.Since(leaseStart).Seconds())
					if nDone > 0 {
						c.met.workerJobs(wurl).Add(int64(nDone))
					}
					// Re-queue whatever this lease didn't finish,
					// whether it failed or expired mid-stream.
					requeued := 0
					for _, u := range batch {
						if st.requeue(u.key, wurl) {
							requeued++
						}
					}
					if requeued > 0 {
						c.met.requeues.Add(int64(requeued))
						statMu.Lock()
						stats.Requeued += requeued
						statMu.Unlock()
					}
					if st.allDone() || ctx.Err() != nil {
						// A lease torn down because the campaign
						// finished elsewhere is not a worker failure.
						return
					}
					if err != nil {
						setErr(fmt.Errorf("fabric: worker %s: %w", wurl, err))
						if nDone > 0 {
							fails = 0 // it made progress; don't count toward death
						} else {
							fails++
						}
						if fails > c.cfg.MaxRetries {
							c.met.deadWorkers.Inc()
							statMu.Lock()
							stats.DeadWorkers++
							statMu.Unlock()
							o.Logger().Warn("fabric: abandoning worker", "worker", wurl, "fails", fails, "err", err)
							return
						}
						c.met.retries.Inc()
						statMu.Lock()
						stats.Retries++
						statMu.Unlock()
						select {
						case <-ctx.Done():
							return
						case <-time.After(backoff(c.cfg.RetryBase, fails, wurl)):
						}
						continue
					}
					fails = 0
				}
			}()
		}
		wg.Wait()
		tickCancel()
		st.close()
	}

	if err := ctx.Err(); err != nil {
		done := stats.Unique - len(st.remaining())
		return results, stats, fmt.Errorf("fabric: interrupted after %d/%d unique jobs (checkpoint retained): %w",
			done, stats.Unique, err)
	}

	// Phase 4: anything still unresolved means the whole fleet died.
	// Fall back to a local engine if configured, else fail with the
	// last transport error for diagnosis.
	if rem := st.remaining(); len(rem) > 0 {
		if !c.cfg.LocalFallback {
			if lastErr == nil {
				lastErr = errors.New("all workers unavailable")
			}
			return results, stats, fmt.Errorf("fabric: %d/%d unique jobs unresolved: %w",
				len(rem), stats.Unique, lastErr)
		}
		o.Logger().Warn("fabric: falling back to local engine", "jobs", len(rem), "last_err", lastErr)
		specs := make([]campaign.JobSpec, len(rem))
		for i, u := range rem {
			specs[i] = u.spec
		}
		eng := &campaign.Engine{
			Workers:       c.cfg.LocalWorkers,
			KernelWorkers: c.cfg.LocalKernelWorkers,
			Cache:         c.cfg.Cache,
			Obs:           o,
		}
		lres, lstats, err := eng.Run(ctx, specs)
		if err != nil {
			return results, stats, fmt.Errorf("fabric: local fallback: %w", err)
		}
		stats.FallbackSimulated = lstats.Simulated
		for i, u := range rem {
			res := lres[i]
			var tr receivedTrace
			if u.spec.RecordTrace {
				if csv, ok, _ := c.cfg.Cache.GetTrace(u.key); ok {
					tr = parseTrace(csv)
				}
			}
			complete(u, res, tr, false)
		}
	}

	o.Logger().Info("fabric: campaign complete",
		"jobs", stats.Jobs, "unique", stats.Unique,
		"local_hits", stats.LocalHits, "remote_hits", stats.RemoteHits,
		"worker_cache_hits", stats.WorkerCacheHits, "remote_simulated", stats.RemoteSimulated,
		"fallback_simulated", stats.FallbackSimulated,
		"requeued", stats.Requeued, "stolen", stats.Stolen,
		"retries", stats.Retries, "dead_workers", stats.DeadWorkers)
	return results, stats, nil
}

// receivedTrace is a trace artefact as a job's result brought it in,
// parsed once: the points feed the lake, and a trace whose parse
// failed (err) is neither cached nor projected.
type receivedTrace struct {
	csv []byte
	pts []sim.TracePoint
	err error
}

func parseTrace(csv []byte) receivedTrace {
	pts, err := trace.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		return receivedTrace{err: fmt.Errorf("parsing trace: %w", err)}
	}
	return receivedTrace{csv: csv, pts: pts}
}

// completeFunc is RunFabric's complete: checkpoint one resolved job,
// reporting whether this call was the first result for it.
type completeFunc func(u *job, res *campaign.JobResult, tr receivedTrace, cached bool) bool

// lookup asks one peer for every key in body (an encoded
// lookupRequest) and completes the hits it streams back. A hit counts
// only for a key of this campaign, and for a record_trace job only
// with a trace that parses; anything else stays a miss for the lease
// phase. Returns the jobs newly completed by this peer.
func (c *Coordinator) lookup(ctx context.Context, wurl string, body []byte, st *runState, complete completeFunc) (int, error) {
	n := 0
	err := c.stream(ctx, wurl+"/v1/cache/lookup", body, c.cfg.RequestTimeout, func(line leaseLine) {
		u := st.byKey[line.Key]
		if u == nil || line.Result == nil {
			return
		}
		var tr receivedTrace
		if u.spec.RecordTrace {
			if tr = parseTrace(line.Trace); tr.err != nil {
				return
			}
		}
		if complete(u, line.Result, tr, true) {
			n++
		}
	})
	return n, err
}

// lease POSTs one batch to a worker and consumes the NDJSON result
// stream, completing jobs as lines arrive. The stream's per-line
// watchdog runs at LeaseTTL, so a hung or killed worker surfaces as an
// error here and the caller re-queues. Returns the number of jobs newly
// completed by this lease.
func (c *Coordinator) lease(ctx context.Context, wurl string, batch []*job,
	st *runState, lakeCampaign string, complete completeFunc,
	stats *FabricStats, statMu *sync.Mutex) (int, error) {

	specs := make([]campaign.JobSpec, len(batch))
	for i, u := range batch {
		specs[i] = u.spec
	}
	body, err := json.Marshal(leaseRequest{Campaign: lakeCampaign, Jobs: specs})
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
		// byKey on the run state is immutable after the dedup phase,
		// so the read is safe.
		u := st.byKey[line.Key]
		if u == nil {
			return
		}
		var tr receivedTrace
		if len(line.Trace) > 0 {
			tr = parseTrace(line.Trace)
		}
		if complete(u, line.Result, tr, false) {
			nDone++
			statMu.Lock()
			if line.Cached {
				stats.WorkerCacheHits++
			} else {
				stats.RemoteSimulated++
			}
			statMu.Unlock()
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
