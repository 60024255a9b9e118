package campaign

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"hsas/internal/httpjson"
	"hsas/internal/lake"
	"hsas/internal/obs"
)

// Runner executes one campaign's jobs and returns results in
// submission order. Engine is the local implementation; the fabric
// coordinator (internal/fabric) is the distributed one.
type Runner interface {
	Run(ctx context.Context, jobs []JobSpec) ([]*JobResult, RunStats, error)
}

// ServerConfig parameterizes the campaign HTTP service.
type ServerConfig struct {
	// Workers and KernelWorkers configure the engine each campaign runs
	// on (see Engine); one campaign executes at a time, so Workers also
	// bounds the server's total concurrent simulations.
	Workers       int
	KernelWorkers int
	// NewRunner, when set, builds the executor for each campaign instead
	// of the built-in local Engine — the seam the fabric coordinator
	// mode plugs into. It receives the campaign id, the server's shared
	// cache, and the progress hooks the status API depends on; the
	// returned Runner must invoke them.
	NewRunner func(id string, cache Cache, hooks Hooks) Runner
	// Cache backs every campaign; nil uses a process-lifetime MemCache
	// (resubmissions still hit, restarts start cold).
	Cache Cache
	// QueueSize bounds the accepted-but-not-started campaign queue.
	// Submissions beyond it are rejected with 429 — backpressure, not
	// buffering. 0 means 8.
	QueueSize int
	// Obs receives server logs and metrics (queue depth, campaign
	// counters) plus the engine instrumentation.
	Obs *obs.Observer
	// Lake, when set, receives every completed job's result row (and
	// record_trace traces), labeled with the campaign id, and backs the
	// /v1/analytics endpoints. Nil disables both.
	Lake *lake.Writer
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the API
	// handler. Off by default: the profiler exposes heap and goroutine
	// internals and belongs on operator-only listeners.
	EnablePprof bool
}

// Campaign lifecycle states reported by the status API.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Status is one campaign's externally visible state.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	// Jobs is the expanded job count; Done how many have completed
	// (cache hits included), CacheHits/Simulated the split.
	Jobs      int    `json:"jobs"`
	Done      int    `json:"done"`
	CacheHits int    `json:"cache_hits"`
	Simulated int    `json:"simulated"`
	Error     string `json:"error,omitempty"`
}

// jobOutcome pairs a job with its result for the results payload.
type jobOutcome struct {
	Job    JobSpec    `json:"job"`
	Key    string     `json:"key"`
	Result *JobResult `json:"result"`
}

// campaignState is the server-side record of one submission.
type campaignState struct {
	id   string
	grid Grid
	jobs []JobSpec

	mu        sync.Mutex
	state     string
	done      int
	cacheHits int
	simulated int
	err       string
	results   []*JobResult
	cancel    context.CancelFunc
}

func (c *campaignState) snapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		ID: c.id, Name: c.grid.Name, State: c.state,
		Jobs: len(c.jobs), Done: c.done,
		CacheHits: c.cacheHits, Simulated: c.simulated, Error: c.err,
	}
}

// Server queues submitted campaigns and executes them one at a time on
// a shared engine and cache. It implements the lkas-serve HTTP API:
//
//	POST /v1/campaigns                  submit a Grid; 202 {id}, 429 when the queue is full
//	GET  /v1/campaigns                  list campaign statuses
//	GET  /v1/campaigns/{id}             one campaign's status
//	GET  /v1/campaigns/{id}/events      NDJSON status stream until terminal
//	GET  /v1/campaigns/{id}/results     job results (409 until done)
//	GET  /v1/campaigns/{id}/jobs/{i}/trace  per-cycle trace CSV (record_trace grids)
//	GET  /v1/analytics/summary          lake rollup + trace summary (404 without a lake)
//	GET  /v1/analytics/query            NDJSON grouped aggregation over the lake
//	GET  /healthz                       200, or 503 once draining
//	GET  /metrics                       Prometheus exposition (when Obs.Metrics set)
//	/debug/pprof/*                      profiler (only with EnablePprof)
type Server struct {
	cfg   ServerConfig
	cache Cache
	obs   *obs.Observer

	mu        sync.Mutex // guards queue close vs submit, campaigns, seq
	queue     chan *campaignState
	campaigns map[string]*campaignState
	order     []string
	seq       int
	draining  bool
	running   *campaignState

	wg sync.WaitGroup

	depthG    *obs.Gauge
	acceptedC *obs.Counter
	rejectedC *obs.Counter
	doneC     *obs.Counter
	failedC   *obs.Counter

	scanSecH  *obs.Histogram
	scanRowsH *obs.Histogram
	scanMBH   *obs.Histogram
}

// Cache exposes the server's content-addressed result cache, so
// sibling services (the adversarial search endpoint) can run their jobs
// against the same store and share warm results with queued campaigns.
func (s *Server) Cache() Cache { return s.cache }

// NewServer builds a Server; call Start to launch the executor.
func NewServer(cfg ServerConfig) *Server {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 8
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewMemCache()
	}
	reg := cfg.Obs.Registry()
	return &Server{
		cfg:       cfg,
		cache:     cache,
		obs:       cfg.Obs,
		queue:     make(chan *campaignState, cfg.QueueSize),
		campaigns: map[string]*campaignState{},
		depthG:    reg.Gauge("hsas_serve_queue_depth", "campaigns accepted but not yet finished"),
		acceptedC: reg.Counter("hsas_serve_campaigns_accepted_total", "campaign submissions accepted"),
		rejectedC: reg.Counter("hsas_serve_campaigns_rejected_total", "campaign submissions rejected with 429 (queue full)"),
		doneC:     reg.Counter("hsas_serve_campaigns_done_total", "campaigns completed successfully"),
		failedC:   reg.Counter("hsas_serve_campaigns_failed_total", "campaigns that failed or were canceled"),
		scanSecH: reg.Histogram("hsas_lake_scan_seconds", "wall time per analytics lake scan",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}),
		scanRowsH: reg.Histogram("hsas_lake_scan_rows_per_second", "lake scan throughput in rows/s",
			[]float64{1e3, 1e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7}),
		scanMBH: reg.Histogram("hsas_lake_scan_megabytes", "bytes scanned per analytics query, in MB",
			[]float64{0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000}),
	}
}

// Start launches the campaign executor goroutine.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.loop()
}

// Shutdown drains the server: new submissions get 503, the running
// campaign is given until ctx expires to finish (its completed jobs are
// checkpointed either way), and still-queued campaigns are marked
// canceled — the cache makes resubmitting them after a restart cheap.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		if s.running != nil && s.running.cancel != nil {
			s.running.cancel()
		}
		s.mu.Unlock()
		<-finished
		return ctx.Err()
	}
}

func (s *Server) loop() {
	defer s.wg.Done()
	for st := range s.queue {
		s.mu.Lock()
		draining := s.draining
		if !draining {
			s.running = st
		}
		s.mu.Unlock()
		if draining {
			// Drain fast: queued campaigns are canceled, not executed.
			st.mu.Lock()
			st.state = StateCanceled
			st.err = "server draining"
			st.mu.Unlock()
			s.failedC.Inc()
			s.depthG.Add(-1)
			continue
		}
		s.execute(st)
		s.mu.Lock()
		s.running = nil
		s.mu.Unlock()
		s.depthG.Add(-1)
	}
}

func (s *Server) execute(st *campaignState) {
	ctx, cancel := context.WithCancel(context.Background())
	st.mu.Lock()
	st.state = StateRunning
	st.cancel = cancel
	st.mu.Unlock()
	defer cancel()

	hooks := Hooks{JobDone: func(ev JobEvent) {
		st.mu.Lock()
		st.done += len(ev.Indices)
		if ev.Cached {
			st.cacheHits += len(ev.Indices)
		} else if ev.Err == nil {
			st.simulated++
		}
		st.mu.Unlock()
	}}
	var runner Runner
	if s.cfg.NewRunner != nil {
		runner = s.cfg.NewRunner(st.id, s.cache, hooks)
	} else {
		runner = &Engine{
			Workers:       s.cfg.Workers,
			KernelWorkers: s.cfg.KernelWorkers,
			Cache:         s.cache,
			Obs:           s.obs,
			Lake:          s.cfg.Lake,
			LakeCampaign:  st.id,
			Hooks:         hooks,
		}
	}
	s.obs.Logger().Info("campaign start", "id", st.id, "name", st.grid.Name, "jobs", len(st.jobs))
	results, stats, err := runner.Run(ctx, st.jobs)

	st.mu.Lock()
	st.results = results
	st.cacheHits = stats.CacheHits
	st.simulated = stats.Simulated
	switch {
	case err == nil:
		st.state = StateDone
	case errors.Is(err, context.Canceled):
		st.state = StateCanceled
		st.err = err.Error()
	default:
		st.state = StateFailed
		st.err = err.Error()
	}
	state := st.state
	st.mu.Unlock()

	if state == StateDone {
		s.doneC.Inc()
	} else {
		s.failedC.Inc()
	}
	s.obs.Logger().Info("campaign finished", "id", st.id, "state", state,
		"cache_hits", stats.CacheHits, "simulated", stats.Simulated)
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/campaigns/{id}/jobs/{index}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/analytics/summary", s.handleAnalyticsSummary)
	mux.HandleFunc("GET /v1/analytics/query", s.handleAnalyticsQuery)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if reg := s.obs.Registry(); reg != nil {
		mux.Handle("GET /metrics", reg.Handler())
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var grid Grid
	if err := httpjson.Decode(w, r, 1<<20, &grid); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "decoding campaign grid: %v", err)
		return
	}
	jobs, err := grid.Expand()
	if err != nil {
		httpjson.Error(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpjson.Error(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.seq++
	st := &campaignState{id: fmt.Sprintf("c%06d", s.seq), grid: grid, jobs: jobs, state: StateQueued}
	select {
	case s.queue <- st:
		s.campaigns[st.id] = st
		s.order = append(s.order, st.id)
		s.mu.Unlock()
		s.acceptedC.Inc()
		s.depthG.Add(1)
		httpjson.Write(w, http.StatusAccepted, map[string]any{"id": st.id, "jobs": len(jobs)})
	default:
		s.seq-- // unused id
		s.mu.Unlock()
		s.rejectedC.Inc()
		w.Header().Set("Retry-After", "5")
		httpjson.Error(w, http.StatusTooManyRequests, "campaign queue full (%d pending); retry later", s.cfg.QueueSize)
	}
}

// lookup returns the campaign the request's path names, or answers 404
// and returns nil.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *campaignState {
	s.mu.Lock()
	st := s.campaigns[r.PathValue("id")]
	s.mu.Unlock()
	if st == nil {
		httpjson.Error(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
	}
	return st
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		st := s.campaigns[id]
		s.mu.Unlock()
		out = append(out, st.snapshot())
	}
	httpjson.Write(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	httpjson.Write(w, http.StatusOK, st.snapshot())
}

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// handleEvents streams NDJSON status snapshots (one line per change)
// until the campaign reaches a terminal state or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	stream := httpjson.NewStream(w)
	var last Status
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		snap := st.snapshot()
		if !stream.Started() || snap != last {
			if stream.Send(snap) != nil {
				return
			}
			last = snap
		}
		if terminal(snap.State) {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	snap := st.snapshot()
	if snap.State != StateDone {
		httpjson.Error(w, http.StatusConflict, "campaign %s is %s; results are available once done", snap.ID, snap.State)
		return
	}
	st.mu.Lock()
	results := st.results
	st.mu.Unlock()

	// Stream the results array one job at a time instead of buffering
	// the full payload: a 100k-job campaign's results are tens of MB,
	// and materializing them doubles the server's peak heap for the
	// duration of every download. The wire shape is a single JSON
	// object {<status fields>, "results": [...]}, so the status is
	// encoded first and re-opened before the array.
	var head strings.Builder
	_ = httpjson.NewEncoder(&head).Encode(snap)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := httpjson.NewEncoder(w)
	_ = enc.Raw(strings.TrimSuffix(head.String(), "}\n") + `,"results":[`)
	for i := range st.jobs {
		if i > 0 {
			_ = enc.Raw(",")
		}
		key, _ := st.jobs[i].Key() // jobs were normalized at submit; cannot fail
		// Encode appends '\n'; inside an array that is insignificant
		// whitespace, and it keeps the stream line-oriented.
		if enc.Encode(jobOutcome{Job: st.jobs[i], Key: key, Result: results[i]}) != nil {
			return // client went away
		}
	}
	_ = enc.Raw("]}\n")
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	idx, err := strconv.Atoi(r.PathValue("index"))
	if err != nil || idx < 0 || idx >= len(st.jobs) {
		httpjson.Error(w, http.StatusNotFound, "campaign %s has no job %q", st.id, r.PathValue("index"))
		return
	}
	if !st.jobs[idx].RecordTrace {
		httpjson.Error(w, http.StatusNotFound, "campaign %s did not set record_trace", st.id)
		return
	}
	key, _ := st.jobs[idx].Key()
	csv, ok2, err := s.cache.GetTrace(key)
	if err != nil {
		httpjson.Error(w, http.StatusInternalServerError, "reading trace: %v", err)
		return
	}
	if !ok2 {
		httpjson.Error(w, http.StatusNotFound, "trace for job %d not recorded yet", idx)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(csv)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpjson.Error(w, http.StatusServiceUnavailable, "draining")
		return
	}
	httpjson.Write(w, http.StatusOK, map[string]string{"status": "ok"})
}
