// Command modemerged serves the mode-merging flow over an HTTP JSON API.
// Clients POST a design + SDC modes to /v2/merge, poll /v2/jobs/{id},
// and fetch merged SDC from /v2/jobs/{id}/result. Jobs run on a bounded
// worker pool with one content-addressed cache (-incr-cache entries) of
// built designs, sub-merge products and finished results; SIGINT/SIGTERM drains in-flight jobs before exit.
// Observability: GET /v2/stats serves the counters as JSON and GET
// /metrics the same snapshot as Prometheus text, every job exposes its
// span tree at /v2/jobs/{id}/trace, and -debug-addr starts a separate
// listener with net/http/pprof profiles. /v2 requests honor the W3C
// traceparent header; -trace-export appends finished jobs' spans as
// NDJSON, and -flight-dir keeps flight recordings (span tree + CPU
// profile + goroutine dump) of slow, failed, or panicked jobs, served
// at /v2/flights.
//
// Distributed merge fabric: every server is a coordinator (GET
// /v2/cluster) whose jobs merge their own cliques, and -fabric lets
// workers join (wire API under /fabric/v1/) to steal clique merges off a
// work-stealing queue: `modemerged -role worker -join
// http://coordinator:8080`. Output is byte-identical to the
// single-process path at any worker count, including across worker
// deaths.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"modemerge/internal/fabric"
	"modemerge/internal/obs"
	"modemerge/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		debugAddr   = flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty = disabled)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		workers     = flag.Int("workers", 0, "merge worker pool size (0 = all cores)")
		mergePar    = flag.Int("merge-parallelism", 0, "intra-merge worker pool bound per job; merged output is byte-identical for any value (0 = all cores, 1 = sequential)")
		queueDepth  = flag.Int("queue", 64, "maximum queued jobs before submissions are rejected")
		jobTimeout  = flag.Duration("job-timeout", 2*time.Minute, "default per-job execution deadline")
		maxTimeout  = flag.Duration("max-job-timeout", 15*time.Minute, "upper clamp for client-requested job deadlines")
		drainGrace  = flag.Duration("drain-grace", 30*time.Second, "how long shutdown waits for in-flight jobs")
		incrCache   = flag.Int("incr-cache", 4096, "entries of the one cache for everything cached: built designs, timing contexts, pair verdicts, clique artifacts and finished results (0 = 4096; values under 16 mean 16)")
		incrDir     = flag.String("incr-cache-dir", "", "persist pair verdicts and clique artifacts under this directory (empty = memory only)")
		traceExport = flag.String("trace-export", "", "append finished jobs' spans as OTLP-flavored NDJSON to this file (empty = disabled)")
		flightDir   = flag.String("flight-dir", "", "keep flight recordings of slow/failed/panicked jobs under this directory (empty = disabled)")
		flightThr   = flag.Duration("flight-threshold", 30*time.Second, "job latency beyond which a flight recording is captured")
		flightKeep  = flag.Int("flight-keep", 16, "maximum flight recordings kept on disk")
		flightSlow  = flag.Int("flight-slowest", 4, "slowest recordings protected from eviction (must be < -flight-keep)")

		role        = flag.String("role", "server", "process role: server (HTTP API and merge fabric coordinator) or worker (join a coordinator and execute clique merges)")
		join        = flag.String("join", "", "coordinator base URL a worker joins (required with -role worker, e.g. http://coordinator:8080)")
		workerID    = flag.String("worker-id", "", "cluster identity of this worker (default hostname-pid)")
		fabricOn    = flag.Bool("fabric", false, "let merge workers join over /fabric/v1/ and steal clique merges from this server's jobs")
		fabricLocal = flag.Int("fabric-local-executors", 0, "cliques each job merges in-process at once (0 = 1; -1 with -fabric = none: pure dispatcher)")
		fabricWidth = flag.Int("fabric-dispatch", 0, "cliques one merge job keeps in flight while it shares them with workers (0 = 8)")
		fabricLease = flag.Duration("fabric-lease-ttl", 30*time.Second, "silence after which a claimed clique job is presumed lost and requeued")
		fabricTries = flag.Int("fabric-max-attempts", 3, "executions of one clique job across lease expiries before it fails")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "modemerged:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	switch *role {
	case "server":
	case "worker":
		os.Exit(runWorker(logger, *join, *workerID, *mergePar))
	default:
		fmt.Fprintf(os.Stderr, "modemerged: unknown -role %q (want server or worker)\n", *role)
		os.Exit(2)
	}

	var exporter *obs.FileExporter
	if *traceExport != "" {
		exporter, err = obs.NewFileExporter(*traceExport)
		if err != nil {
			fmt.Fprintln(os.Stderr, "modemerged:", err)
			os.Exit(2)
		}
		defer exporter.Close()
	}

	cfg := service.Config{
		Workers:           *workers,
		MergeParallelism:  *mergePar,
		QueueDepth:        *queueDepth,
		DefaultJobTimeout: *jobTimeout,
		MaxJobTimeout:     *maxTimeout,
		IncrCacheSize:     *incrCache,
		IncrCacheDir:      *incrDir,
		Logger:            logger,
		Flight: service.FlightConfig{
			Dir:              *flightDir,
			LatencyThreshold: *flightThr,
			KeepLast:         *flightKeep,
			KeepSlowest:      *flightSlow,
		},
		Fabric: service.FabricConfig{
			Enabled:        *fabricOn,
			LocalExecutors: *fabricLocal,
			DispatchWidth:  *fabricWidth,
			LeaseTTL:       *fabricLease,
			MaxAttempts:    *fabricTries,
		},
	}
	// Assign only through a typed nil check: a nil *FileExporter boxed
	// into the interface would read as "exporter configured".
	if exporter != nil {
		cfg.SpanExporter = exporter
	}
	srv := service.New(cfg)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           pprofHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server failed", "error", err)
			}
		}()
	}

	select {
	case err := <-errc:
		logger.Error("server failed", "error", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}

	// Graceful drain: stop accepting connections, then give queued and
	// running jobs the grace period before canceling them.
	logger.Info("shutting down", "grace", drainGrace.String())
	graceCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := httpSrv.Shutdown(graceCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(graceCtx); err != nil {
			logger.Warn("pprof shutdown", "error", err)
		}
	}
	if err := srv.Shutdown(graceCtx); err != nil {
		logger.Error("drain incomplete", "error", err)
		if errors.Is(err, context.DeadlineExceeded) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

// runWorker is the -role worker main: join the coordinator at joinURL,
// pull clique merge jobs over the fabric wire API and execute them
// against the coordinator's artifact store until SIGINT/SIGTERM. Dying
// at any point is safe — the coordinator's lease expires and the job
// reruns elsewhere with byte-identical output.
func runWorker(logger *slog.Logger, joinURL, id string, parallelism int) int {
	if joinURL == "" {
		fmt.Fprintln(os.Stderr, "modemerged: -role worker requires -join <coordinator URL>")
		return 2
	}
	w := fabric.NewWorker(joinURL, fabric.WorkerConfig{
		ID:          id,
		Parallelism: parallelism,
		Logger:      logger,
	})
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("merge worker starting", "worker", w.ID(), "coordinator", joinURL)
	if err := w.Run(sigCtx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Error("worker failed", "error", err)
		return 1
	}
	logger.Info("worker stopped")
	return 0
}

// buildLogger constructs the process logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q", format)
	}
}

// pprofHandler builds the pprof mux explicitly so the profiles live only
// on the debug listener, never on the public API address.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
