package fabric

import (
	"context"
	"net/http"

	"hsas/internal/campaign"
	"hsas/internal/httpjson"
	"hsas/internal/lake"
	"hsas/internal/obs"
)

// WorkerConfig configures one fabric worker node.
type WorkerConfig struct {
	// Workers / KernelWorkers shape the node's local campaign.Engine
	// pool (zero = engine defaults).
	Workers       int
	KernelWorkers int
	// Cache is the node's local content-addressed cache; leased jobs
	// resolve against it before simulating, and every entry is served
	// to the fleet via POST /v1/cache/lookup and GET /v1/cache/{key}.
	// Nil uses an in-memory cache (a worker must cache: the lease
	// protocol reads traces and the resubmit-is-free guarantee back out
	// of it).
	Cache campaign.Cache
	// Lake, when set, keeps a node-local analytical lake of every job
	// this worker completes.
	Lake *lake.Writer
	// Obs receives worker logs and metrics (lease counters, the local
	// engine's campaign metrics, federated cache hit/miss counters).
	Obs *obs.Observer
	// MaxLeaseBytes bounds a single lease or lookup request body; 0
	// defaults to 64 MiB (roughly 100k jobs).
	MaxLeaseBytes int64
}

// Worker executes leased job batches on a local campaign.Engine and
// serves its cache to the rest of the fleet. Handlers are safe for
// concurrent use; concurrent leases share the cache but each gets its
// own engine pool.
type Worker struct {
	cfg WorkerConfig
	met workerMetrics
}

type workerMetrics struct {
	leases     *obs.Counter
	leaseJobs  *obs.Counter
	cacheHits  *obs.Counter // results served by a point or bulk lookup
	cacheMiss  *obs.Counter // results a lookup found missing
	traceHits  *obs.Counter
	traceMiss  *obs.Counter
	leaseBusy  *obs.Gauge
	leaseBatch *obs.Histogram
}

// NewWorker returns a Worker for cfg, defaulting the cache to an
// in-memory one.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Cache == nil {
		cfg.Cache = campaign.NewMemCache()
	}
	if cfg.MaxLeaseBytes <= 0 {
		cfg.MaxLeaseBytes = 64 << 20
	}
	reg := cfg.Obs.Registry()
	return &Worker{cfg: cfg, met: workerMetrics{
		leases:    reg.Counter("hsas_fabric_worker_leases_total", "lease batches accepted by this worker"),
		leaseJobs: reg.Counter("hsas_fabric_worker_lease_jobs_total", "jobs received across all lease batches"),
		cacheHits: reg.Counter("hsas_fabric_cache_serve_hits_total", "federated cache lookups served (result found)"),
		cacheMiss: reg.Counter("hsas_fabric_cache_serve_misses_total", "federated cache lookups that found no result"),
		traceHits: reg.Counter("hsas_fabric_trace_serve_hits_total", "federated trace lookups served"),
		traceMiss: reg.Counter("hsas_fabric_trace_serve_misses_total", "federated trace lookups that found no trace"),
		leaseBusy: reg.Gauge("hsas_fabric_worker_leases_inflight", "lease batches currently executing"),
		leaseBatch: reg.Histogram("hsas_fabric_worker_lease_batch_jobs", "jobs per lease batch",
			[]float64{1, 4, 16, 64, 256, 1024, 4096, 16384}),
	}}
}

// Handler returns the worker's HTTP API:
//
//	POST /v1/lease             execute a job batch, stream NDJSON results
//	POST /v1/cache/lookup      federated cache, bulk: stream NDJSON hits
//	GET  /v1/cache/{key}       federated cache: result JSON or 404
//	GET  /v1/cache/{key}/trace federated cache: trace CSV or 404
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus exposition
//
// The cache endpoints accept only content addresses (64 lowercase hex
// digits, as campaign.JobSpec.Key produces) and answer 400 to anything
// else, so no key can name a file outside the cache directory.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", w.handleLease)
	mux.HandleFunc("POST /v1/cache/lookup", w.handleCacheLookup)
	mux.HandleFunc("GET /v1/cache/{key}", w.handleCacheGet)
	mux.HandleFunc("GET /v1/cache/{key}/trace", w.handleCacheTrace)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		httpjson.Write(rw, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", w.cfg.Obs.Registry().Handler())
	return mux
}

// handleLease runs one leased batch on a local engine, streaming one
// NDJSON line per completed job as it completes (the stream is the
// coordinator's liveness signal) and a trailer line with batch totals.
func (w *Worker) handleLease(rw http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := httpjson.Decode(rw, r, w.cfg.MaxLeaseBytes, &req); err != nil {
		httpjson.Error(rw, http.StatusBadRequest, "decoding lease request: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		httpjson.Error(rw, http.StatusBadRequest, "lease request carries no jobs")
		return
	}
	w.met.leases.Inc()
	w.met.leaseJobs.Add(int64(len(req.Jobs)))
	w.met.leaseBatch.Observe(float64(len(req.Jobs)))
	w.met.leaseBusy.Add(1)
	defer w.met.leaseBusy.Add(-1)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	// JobDone is serialized by the engine, so the stream needs no extra
	// locking. A write failure means the coordinator hung up: cancel
	// the engine so the remaining jobs re-queue elsewhere instead of
	// burning this node.
	stream := httpjson.NewStream(rw)
	eng := &campaign.Engine{
		Workers:       w.cfg.Workers,
		KernelWorkers: w.cfg.KernelWorkers,
		Cache:         w.cfg.Cache,
		Lake:          w.cfg.Lake,
		LakeCampaign:  req.Campaign,
		Obs:           w.cfg.Obs,
		Hooks: campaign.Hooks{JobDone: func(ev campaign.JobEvent) {
			if ev.Err != nil || ev.Result == nil {
				return // engine error surfaces in the trailer
			}
			key, err := ev.Spec.Key()
			if err != nil {
				return
			}
			line := leaseLine{Key: key, Result: ev.Result, Cached: ev.Cached}
			if ev.Spec.RecordTrace {
				if csv, ok, _ := w.cfg.Cache.GetTrace(key); ok {
					line.Trace = csv
				}
			}
			if stream.Send(line) != nil {
				cancel()
			}
		}},
	}
	_, stats, err := eng.Run(ctx, req.Jobs)
	trailer := leaseLine{Done: true, Simulated: stats.Simulated, CacheHits: stats.CacheHits}
	if err != nil && ctx.Err() == nil {
		trailer.Error = err.Error()
	}
	_ = stream.Send(trailer)
}

// handleCacheLookup serves the federated cache tier in bulk: one
// request carries every key a coordinator is missing, and the response
// streams one NDJSON leaseLine per hit (Cached set, Trace for keys whose
// job records one), then a trailer with the hit count. A result whose
// trace is missing or fails the cache's validation is a miss, as on the
// point lookups.
func (w *Worker) handleCacheLookup(rw http.ResponseWriter, r *http.Request) {
	var req lookupRequest
	if err := httpjson.Decode(rw, r, w.cfg.MaxLeaseBytes, &req); err != nil {
		httpjson.Error(rw, http.StatusBadRequest, "decoding lookup request: %v", err)
		return
	}
	if len(req.Keys) == 0 {
		httpjson.Error(rw, http.StatusBadRequest, "lookup request carries no keys")
		return
	}
	if len(req.Trace) != len(req.Keys) {
		httpjson.Error(rw, http.StatusBadRequest, "lookup request has %d keys but %d trace flags", len(req.Keys), len(req.Trace))
		return
	}
	for _, key := range req.Keys {
		if !campaign.ValidKey(key) {
			httpjson.Error(rw, http.StatusBadRequest, "malformed cache key %q", key)
			return
		}
	}

	stream := httpjson.NewStream(rw)
	hits := 0
	for i, key := range req.Keys {
		if r.Context().Err() != nil {
			return // the coordinator hung up
		}
		// A read error is logged and served as a miss: the coordinator
		// then leases the job instead.
		res, ok, err := w.getResult(key)
		if err != nil {
			w.cfg.Obs.Logger().Warn("fabric: cache read failed", "key", key[:12], "err", err)
		}
		if !ok {
			continue
		}
		line := leaseLine{Key: key, Result: res, Cached: true}
		if req.Trace[i] {
			if line.Trace, ok, err = w.getTrace(key); err != nil {
				w.cfg.Obs.Logger().Warn("fabric: cache trace read failed", "key", key[:12], "err", err)
			}
			if !ok {
				continue
			}
		}
		if stream.Send(line) != nil {
			return
		}
		hits++
	}
	_ = stream.Send(leaseLine{Done: true, CacheHits: hits})
}

// handleCacheGet serves one key of the federated cache tier.
func (w *Worker) handleCacheGet(rw http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !campaign.ValidKey(key) {
		httpjson.Error(rw, http.StatusBadRequest, "malformed cache key %q", key)
		return
	}
	res, ok, err := w.getResult(key)
	if err != nil {
		httpjson.Error(rw, http.StatusInternalServerError, "cache read: %v", err)
		return
	}
	if !ok {
		httpjson.Error(rw, http.StatusNotFound, "no cached result for %s", key)
		return
	}
	httpjson.Write(rw, http.StatusOK, res)
}

// handleCacheTrace serves a cached trace CSV for record_trace jobs.
func (w *Worker) handleCacheTrace(rw http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !campaign.ValidKey(key) {
		httpjson.Error(rw, http.StatusBadRequest, "malformed cache key %q", key)
		return
	}
	csv, ok, err := w.getTrace(key)
	if err != nil {
		httpjson.Error(rw, http.StatusInternalServerError, "cache trace read: %v", err)
		return
	}
	if !ok {
		httpjson.Error(rw, http.StatusNotFound, "no cached trace for %s", key)
		return
	}
	rw.Header().Set("Content-Type", "text/csv")
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(csv)
}

// getResult reads a validated key's result for the federated tier,
// counting the serve as a hit or a miss; a read error counts as
// neither.
func (w *Worker) getResult(key string) (*campaign.JobResult, bool, error) {
	res, ok, err := w.cfg.Cache.Get(key)
	switch {
	case err != nil:
		return nil, false, err
	case ok:
		w.met.cacheHits.Inc()
	default:
		w.met.cacheMiss.Inc()
	}
	return res, ok, nil
}

// getTrace is getResult for a key's trace CSV.
func (w *Worker) getTrace(key string) ([]byte, bool, error) {
	csv, ok, err := w.cfg.Cache.GetTrace(key)
	switch {
	case err != nil:
		return nil, false, err
	case ok:
		w.met.traceHits.Inc()
	default:
		w.met.traceMiss.Inc()
	}
	return csv, ok, nil
}
