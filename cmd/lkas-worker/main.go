// Command lkas-worker runs one fabric worker node: it executes job
// batches leased to it by a campaign coordinator (lkas-serve
// -fabric-workers=...) on a local simulation engine, and serves its
// content-addressed cache to the rest of the fleet so any node's
// results are everyone's results.
//
//	lkas-worker -addr :8091 -cache-dir /var/lib/lkas-cache
//
// Endpoints: POST /v1/lease (batch execution, NDJSON result stream),
// POST /v1/cache/lookup (federated cache, many keys per request, NDJSON
// hit stream), GET /v1/cache/{key} and /v1/cache/{key}/trace (federated
// cache, one key), GET /healthz, GET /metrics. -max-lease-bytes bounds
// both POST bodies. With -cache-dir the cache survives
// restarts, so a re-leased batch after a crash re-simulates only what
// was in flight; with -lake-dir the node also keeps a columnar lake of
// everything it computes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hsas/internal/campaign"
	"hsas/internal/fabric"
	"hsas/internal/lake"
	"hsas/internal/obs"
)

// options is the parsed CLI configuration (separated from main so flag
// handling is unit-testable).
type options struct {
	addr          string
	cacheDir      string
	lakeDir       string
	workers       int
	kernels       int
	maxLeaseBytes int64
	logLevel      string
}

// parseFlags parses the lkas-worker command line; errOut receives
// usage and error text.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("lkas-worker", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8091", "HTTP listen address")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "content-addressed result cache directory (empty = in-memory, lost on restart)")
	fs.StringVar(&o.lakeDir, "lake-dir", "", "node-local columnar result-lake directory (empty = disabled)")
	fs.IntVar(&o.workers, "workers", 0, "parallel simulation workers per lease (0 = all CPUs)")
	fs.IntVar(&o.kernels, "kernel-workers", 0, "per-run image/GEMM kernel goroutines (0 = CPUs/workers)")
	fs.Int64Var(&o.maxLeaseBytes, "max-lease-bytes", 64<<20, "largest accepted lease or cache-lookup request body in bytes")
	fs.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.addr == "" {
		return nil, fmt.Errorf("-addr must not be empty")
	}
	if o.maxLeaseBytes < 1024 {
		return nil, fmt.Errorf("-max-lease-bytes %d must be at least 1024", o.maxLeaseBytes)
	}
	if _, err := obs.ParseLevel(o.logLevel); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %v", o.logLevel, err)
	}
	return o, nil
}

// workerConfig builds the fabric worker configuration (cache, lake,
// observer) for the parsed options.
func workerConfig(o *options, logOut io.Writer) (fabric.WorkerConfig, error) {
	lvl, err := obs.ParseLevel(o.logLevel)
	if err != nil {
		return fabric.WorkerConfig{}, err
	}
	cfg := fabric.WorkerConfig{
		Workers:       o.workers,
		KernelWorkers: o.kernels,
		MaxLeaseBytes: o.maxLeaseBytes,
		Obs: &obs.Observer{
			Log:     obs.NewLogger(logOut, lvl),
			Metrics: obs.NewRegistry(),
		},
	}
	if o.cacheDir != "" {
		cache, err := campaign.NewDirCache(o.cacheDir)
		if err != nil {
			return fabric.WorkerConfig{}, err
		}
		cfg.Cache = cache
	}
	if o.lakeDir != "" {
		lw, err := lake.OpenWriter(o.lakeDir, nil)
		if err != nil {
			return fabric.WorkerConfig{}, err
		}
		cfg.Lake = lw
	}
	return cfg, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg, err := workerConfig(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lkas-worker:", err)
		os.Exit(1)
	}

	w := fabric.NewWorker(cfg)
	// No ReadHeaderTimeout concern beyond the usual; leases stream for
	// as long as the batch simulates, so no write timeout either.
	httpSrv := &http.Server{Addr: o.addr, Handler: w.Handler(), ReadHeaderTimeout: 5 * time.Second}

	log := cfg.Obs.Logger()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Info("lkas-worker listening", "addr", o.addr,
		"cache_dir", o.cacheDir, "lake_dir", o.lakeDir, "workers", o.workers)

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "lkas-worker:", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}

	// Draining a worker is cheap: in-flight leases checkpoint to the
	// cache per job, and the coordinator re-queues whatever this node
	// doesn't finish — graceful shutdown is just closing the listener.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutCtx)
	if cfg.Lake != nil {
		if err := cfg.Lake.Close(); err != nil {
			log.Warn("closing result lake", "err", err)
		}
	}
	log.Info("lkas-worker stopped")
}
