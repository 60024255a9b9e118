// Command lkas-serve exposes the simulation-campaign engine as an HTTP
// service: submit a declarative campaign grid, poll or stream its
// progress, and fetch results and traces. Results are checkpointed in a
// content-addressed cache, so resubmitting a finished (or interrupted)
// campaign re-simulates nothing.
//
//	lkas-serve -addr :8080 -cache-dir /var/lib/lkas-cache
//	curl -XPOST localhost:8080/v1/campaigns \
//	     -d '{"situations":[1,8],"cases":[1,4],"cameras":[[192,96]]}'
//
// The queue is bounded: submissions beyond -queue pending campaigns get
// 429 (backpressure instead of OOM). SIGTERM/SIGINT drains gracefully —
// in-flight work checkpoints, queued campaigns are canceled.
//
// With -lake-dir, every completed job is also appended to a columnar
// result lake and the /v1/analytics endpoints serve fleet aggregations
// over it (see internal/lake and cmd/lkas-lake). -pprof mounts the Go
// profiler under /debug/pprof/ (off by default).
//
// POST /v1/adversarial runs a robustness-margin search (see
// internal/adversarial): the body is a search grid, the response
// streams one NDJSON line per completed (situation, knob) cell plus a
// final margin table. Probes share the campaign cache, so a repeated
// search simulates nothing.
//
// With -fabric-workers, campaigns are not simulated in-process:
// submitted grids shard across the listed lkas-worker nodes, with
// cache misses resolved through the federated cache tier first (see
// internal/fabric):
//
//	lkas-serve -addr :8080 -cache-dir /var/lib/lkas-cache \
//	    -fabric-workers http://node1:8091,http://node2:8091
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hsas/internal/adversarial"
	"hsas/internal/campaign"
	"hsas/internal/fabric"
	"hsas/internal/lake"
	"hsas/internal/obs"
)

// options is the parsed CLI configuration (separated from main so flag
// handling is unit-testable).
type options struct {
	addr         string
	cacheDir     string
	lakeDir      string
	pprof        bool
	queue        int
	workers      int
	kernels      int
	drainTimeout time.Duration
	logLevel     string

	// Distributed-campaign (fabric coordinator) mode.
	fabricWorkers  string
	fabricBatch    int
	fabricLeaseTTL time.Duration
	fabricFallback bool
}

// parseFlags parses the lkas-serve command line; errOut receives usage
// and error text.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("lkas-serve", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "content-addressed result cache directory (empty = in-memory, lost on restart)")
	fs.StringVar(&o.lakeDir, "lake-dir", "", "columnar result-lake directory for fleet analytics (empty = analytics endpoints disabled)")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default; exposes runtime internals)")
	fs.IntVar(&o.queue, "queue", 8, "max campaigns queued before submissions get 429")
	fs.IntVar(&o.workers, "workers", 0, "parallel simulation workers per campaign (0 = all CPUs)")
	fs.IntVar(&o.kernels, "kernel-workers", 0, "per-run image/GEMM kernel goroutines (0 = CPUs/workers)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 60*time.Second, "how long SIGTERM waits for the running campaign before canceling it")
	fs.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn or error")
	fs.StringVar(&o.fabricWorkers, "fabric-workers", "", "comma-separated lkas-worker base URLs; when set, campaigns shard across them instead of simulating in-process")
	fs.IntVar(&o.fabricBatch, "fabric-batch", 64, "max jobs per lease request in fabric mode")
	fs.DurationVar(&o.fabricLeaseTTL, "fabric-lease-ttl", 2*time.Minute, "abandon a lease whose worker streams nothing for this long (jobs re-queue)")
	fs.BoolVar(&o.fabricFallback, "fabric-local-fallback", true, "simulate locally if every fabric worker is unreachable")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.addr == "" {
		return nil, fmt.Errorf("-addr must not be empty")
	}
	if o.queue < 1 {
		return nil, fmt.Errorf("-queue %d must be at least 1", o.queue)
	}
	if o.drainTimeout <= 0 {
		return nil, fmt.Errorf("-drain-timeout %v must be positive", o.drainTimeout)
	}
	if _, err := obs.ParseLevel(o.logLevel); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %v", o.logLevel, err)
	}
	if o.fabricWorkers != "" {
		if o.fabricBatch < 1 {
			return nil, fmt.Errorf("-fabric-batch %d must be at least 1", o.fabricBatch)
		}
		if o.fabricLeaseTTL <= 0 {
			return nil, fmt.Errorf("-fabric-lease-ttl %v must be positive", o.fabricLeaseTTL)
		}
	}
	return o, nil
}

// fabricWorkerURLs splits the -fabric-workers list, dropping empty
// entries (a trailing comma is not an error).
func fabricWorkerURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// serverConfig builds the campaign server configuration (and cache) for
// the parsed options.
func serverConfig(o *options, logOut io.Writer) (campaign.ServerConfig, error) {
	lvl, err := obs.ParseLevel(o.logLevel)
	if err != nil {
		return campaign.ServerConfig{}, err
	}
	cfg := campaign.ServerConfig{
		Workers:       o.workers,
		KernelWorkers: o.kernels,
		QueueSize:     o.queue,
		EnablePprof:   o.pprof,
		Obs: &obs.Observer{
			Log:     obs.NewLogger(logOut, lvl),
			Metrics: obs.NewRegistry(),
		},
	}
	if o.cacheDir != "" {
		cache, err := campaign.NewDirCache(o.cacheDir)
		if err != nil {
			return campaign.ServerConfig{}, err
		}
		cfg.Cache = cache
	}
	if o.lakeDir != "" {
		lw, err := lake.OpenWriter(o.lakeDir, nil)
		if err != nil {
			return campaign.ServerConfig{}, err
		}
		cfg.Lake = lw
	}
	if o.fabricWorkers != "" {
		urls := fabricWorkerURLs(o.fabricWorkers)
		// Validate the fleet up front so a typo'd URL fails startup,
		// not the first campaign.
		if _, err := fabric.NewCoordinator(fabric.CoordinatorConfig{Workers: urls, Obs: cfg.Obs}); err != nil {
			return campaign.ServerConfig{}, err
		}
		srvCfg := cfg // capture by value: Lake/Obs/Workers are stable
		cfg.NewRunner = func(id string, cache campaign.Cache, hooks campaign.Hooks) campaign.Runner {
			co, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
				Workers:            urls,
				Cache:              cache,
				Lake:               srvCfg.Lake,
				LakeCampaign:       id,
				Obs:                srvCfg.Obs,
				Hooks:              hooks,
				BatchSize:          o.fabricBatch,
				LeaseTTL:           o.fabricLeaseTTL,
				LocalFallback:      o.fabricFallback,
				LocalWorkers:       srvCfg.Workers,
				LocalKernelWorkers: srvCfg.KernelWorkers,
			})
			if err != nil {
				// Unreachable: the same config validated at startup.
				panic(fmt.Sprintf("lkas-serve: fabric coordinator: %v", err))
			}
			return co
		}
	}
	return cfg, nil
}

// handler mounts the campaign API plus the adversarial margin-search
// endpoint. Adversarial searches run against the server's shared cache
// (warm probes cost nothing and pre-warm future campaigns) but bypass
// the one-campaign-at-a-time queue: a search is many tiny sequential
// batches, and serializing it behind a bulk campaign would starve it.
func handler(s *campaign.Server, cfg campaign.ServerConfig, o *options) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("POST /v1/adversarial", adversarial.NewHandler(adversarial.ServerConfig{
		Obs: cfg.Obs,
		NewRunner: func() campaign.Runner {
			if cfg.NewRunner != nil {
				return cfg.NewRunner("adversarial", s.Cache(), campaign.Hooks{})
			}
			return &campaign.Engine{
				Workers:       o.workers,
				KernelWorkers: o.kernels,
				Cache:         s.Cache(),
				Lake:          cfg.Lake,
				LakeCampaign:  "adversarial",
				Obs:           cfg.Obs,
			}
		},
	}))
	return mux
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg, err := serverConfig(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lkas-serve:", err)
		os.Exit(1)
	}

	s := campaign.NewServer(cfg)
	s.Start()
	httpSrv := &http.Server{Addr: o.addr, Handler: handler(s, cfg, o), ReadHeaderTimeout: 5 * time.Second}

	log := cfg.Obs.Logger()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Info("lkas-serve listening", "addr", o.addr, "queue", o.queue,
		"cache_dir", o.cacheDir, "lake_dir", o.lakeDir, "workers", o.workers)

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "lkas-serve:", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}

	log.Info("draining", "timeout", o.drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		log.Warn("drain timed out; running campaign canceled (checkpoint retained)", "err", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = httpSrv.Shutdown(shutCtx)
	if cfg.Lake != nil {
		// Seal any still-buffered result rows into a segment.
		if err := cfg.Lake.Close(); err != nil {
			log.Warn("closing result lake", "err", err)
		}
	}
	log.Info("lkas-serve stopped")
}
