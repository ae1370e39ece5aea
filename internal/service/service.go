// Package service is the long-running merge service behind cmd/modemerged:
// an HTTP JSON API that accepts merge jobs (Verilog netlist + cell library
// + N SDC modes), runs them through the timing-graph merging flow on a
// bounded worker pool, and serves results asynchronously.
//
// Design:
//
//   - A bounded queue feeds a fixed worker pool; submissions beyond the
//     queue depth are rejected with 503 so load sheds at the edge instead
//     of piling up.
//   - The incremental cache (internal/incr) makes repeated submissions
//     near-free: besides its sub-merge products it holds built timing
//     graphs (keyed by the parse inputs) and finished results (keyed by
//     the full request). Concurrent first submissions of one design
//     parse it once.
//   - Every job runs under a context.Context carrying a per-job execution
//     deadline; cancellation propagates through core.MergeAll and
//     core.CheckEquivalence into the STA worker pools, so canceled jobs
//     release their workers promptly.
//   - Shutdown drains cooperatively: submissions stop, queued and running
//     jobs get the drain grace period, then everything still running is
//     canceled and marked canceled.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"modemerge/internal/core"
	"modemerge/internal/fabric"
	"modemerge/internal/graph"
	"modemerge/internal/incr"
	"modemerge/internal/obs"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

// Config tunes a Server.
type Config struct {
	// Workers is the merge worker pool size (concurrent jobs). Default:
	// GOMAXPROCS.
	Workers int
	// MergeParallelism bounds the intra-merge worker pools inside each
	// job (core.Options.Parallelism): the sharded endpoint loops, the
	// pass-2/3 relation queries and the pairwise mergeability analysis.
	// Merged output is byte-identical for every setting. Default:
	// GOMAXPROCS.
	MergeParallelism int
	// QueueDepth bounds queued (not yet running) jobs. Default 64.
	QueueDepth int
	// DefaultJobTimeout applies when a request carries no timeout_ms.
	// Default 2m.
	DefaultJobTimeout time.Duration
	// MaxJobTimeout clamps request timeouts. Default 15m.
	MaxJobTimeout time.Duration
	// JobHistoryLimit bounds how many finished (done/failed/canceled)
	// jobs stay available for status polling; beyond it the oldest
	// terminal jobs are evicted from the job table. Default 1024.
	JobHistoryLimit int
	// IncrCacheSize bounds the incremental cache shared by all jobs: the
	// one entry bound for everything the server caches (built designs,
	// per-mode timing contexts, pair verdicts, clique artifacts, finished
	// results — see internal/incr). Default 4096 entries; values under
	// 16 mean 16.
	IncrCacheSize int
	// IncrCacheDir persists pair verdicts and clique artifacts on disk so
	// warm-start reruns survive restarts. Empty = memory only. An
	// unusable directory logs a warning and degrades to memory only.
	IncrCacheDir string
	// Logger receives structured job lifecycle logs. Default:
	// slog.Default().
	Logger *slog.Logger
	// SpanExporter, when set, receives every finished job's span records
	// (OTLP-flavored — see obs.SpanRecord) once the job reaches a
	// terminal state. Export runs on the worker after the job is already
	// terminal, so a slow exporter never delays a result. Nil disables
	// export at zero cost.
	SpanExporter obs.SpanExporter
	// Flight configures the merge flight recorder: automatic capture of
	// span tree, stage counters, CPU profile and goroutine dump for jobs
	// that run slow, fail or panic. Zero value disables recording.
	Flight FlightConfig
	// Fabric configures the server's merge fabric coordinator. Zero
	// value: no worker can join, so every job merges its cliques
	// in-process, one at a time on its own goroutine.
	Fabric FabricConfig
}

// FabricConfig configures the merge fabric coordinator every server is
// (see mergeCliques). Remote merge workers run as modemerged -role worker
// -join <addr>. Output is byte-identical at any worker count.
type FabricConfig struct {
	// Enabled lets workers join: it serves the wire API under
	// /fabric/v1/ and shares the incremental cache's artifact store (in
	// memory unless IncrCacheDir sets a disk one).
	Enabled bool
	// LocalExecutors is how many of a job's cliques the job merges
	// in-process at once. 0 means the default of 1; -1 with Enabled is a
	// pure dispatcher, whose cliques all wait for remote workers.
	LocalExecutors int
	// DispatchWidth bounds how many cliques one job keeps in flight
	// while it shares them with workers. Default 8.
	DispatchWidth int
	// LeaseTTL is how long a claimed clique job may go silent before the
	// worker is presumed dead and the job is requeued. Default 30s.
	LeaseTTL time.Duration
	// MaxAttempts bounds executions of one clique job across lease
	// expiries before it fails permanently. Default 3.
	MaxAttempts int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MergeParallelism <= 0 {
		c.MergeParallelism = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultJobTimeout <= 0 {
		c.DefaultJobTimeout = 2 * time.Minute
	}
	if c.MaxJobTimeout <= 0 {
		c.MaxJobTimeout = 15 * time.Minute
	}
	if c.JobHistoryLimit <= 0 {
		c.JobHistoryLimit = 1024
	}
	if c.Fabric.DispatchWidth <= 0 {
		c.Fabric.DispatchWidth = 8
	}
	if c.Fabric.LocalExecutors == 0 || c.Fabric.LocalExecutors < 0 && !c.Fabric.Enabled {
		c.Fabric.LocalExecutors = 1
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// ErrQueueFull rejects submissions when the queue is at capacity.
var ErrQueueFull = errors.New("service: job queue is full")

// ErrDraining rejects submissions during shutdown.
var ErrDraining = errors.New("service: server is draining")

// Server is one merge service instance.
type Server struct {
	cfg     Config
	metrics *Metrics
	logger  *slog.Logger
	flights *FlightRecorder // nil when disabled

	incr   *incr.Cache
	fabric *fabric.Coordinator
	locals int // cliques a job merges in-process at once; 0: pure dispatcher

	// idemMu serializes the Idempotency-Key check-then-submit sequence
	// so concurrent retries with one key create one job. Lock order:
	// idemMu, then mu.
	idemMu sync.Mutex

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // terminal job ids, oldest first, len ≤ JobHistoryLimit
	draining bool
	// idem maps Idempotency-Key values to the job first submitted under
	// them. A key leaves with its job's history entry.
	idem map[string]*Job

	queue chan *Job
	wg    sync.WaitGroup

	seq atomic.Int64
}

// New starts a Server with its worker pool running.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		logger:     cfg.Logger,
		incr:       incr.New(cfg.IncrCacheSize),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		jobs:       map[string]*Job{},
		idem:       map[string]*Job{},
		queue:      make(chan *Job, cfg.QueueDepth),
	}
	if cfg.IncrCacheDir != "" {
		if _, err := s.incr.WithDisk(cfg.IncrCacheDir); err != nil {
			cfg.Logger.Warn("incremental cache disk store disabled",
				"dir", cfg.IncrCacheDir, "error", err)
		}
	}
	var store incr.BlobStore
	if cfg.Fabric.Enabled {
		// Coordinator and workers must share one artifact store: reuse the
		// incremental cache's write-through store (disk when IncrCacheDir
		// is set) so every clique a job merges in-process is already
		// published, or install an in-memory store when the cache had none.
		if s.incr.Store() == nil {
			s.incr.WithStore(incr.NewMemStore())
		}
		store = s.incr.Store()
	}
	s.locals = max(cfg.Fabric.LocalExecutors, 0)
	s.fabric = fabric.NewCoordinator(store, fabric.CoordinatorConfig{
		LeaseTTL:       cfg.Fabric.LeaseTTL,
		MaxAttempts:    cfg.Fabric.MaxAttempts,
		LocalExecutors: s.locals,
		Logger:         cfg.Logger,
	})
	if cfg.Flight.Dir != "" {
		fr, err := NewFlightRecorder(cfg.Flight, cfg.Logger)
		if err != nil {
			cfg.Logger.Warn("flight recorder disabled", "dir", cfg.Flight.Dir, "error", err)
		} else {
			s.flights = fr
		}
	}
	s.metrics = newMetrics(cfg.MergeParallelism, s.incr.Stats())
	s.incr.SetHitObserver(s.metrics.ObserveIncrHit)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics exposes the server's counters (served at /v2/stats and /metrics).
func (s *Server) Metrics() *Metrics { return s.metrics }

// IncrCache exposes the shared incremental sub-merge cache.
func (s *Server) IncrCache() *incr.Cache { return s.incr }

// Job looks a job up by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Submit validates and enqueues a merge request. When the result cache
// already holds the answer the returned job is immediately done (status
// StatusDone, cache_hit=true) without touching the queue.
func (s *Server) Submit(req *MergeRequest) (*Job, error) {
	return s.SubmitTraced(req, obs.TraceID{})
}

// SubmitTraced is Submit continuing an existing distributed trace: the
// job adopts traceID (the id a /v2 request carried in its traceparent
// header) so its spans, exported records and log lines all join the
// caller's trace. An invalid (zero) id gets a fresh random one.
func (s *Server) SubmitTraced(req *MergeRequest, traceID obs.TraceID) (*Job, error) {
	return s.submit(req, traceID, "")
}

// submit is SubmitTraced recording idemKey, when set, as the job's
// Idempotency-Key in the same step that adds the job to the job table.
func (s *Server) submit(req *MergeRequest, traceID obs.TraceID, idemKey string) (*Job, error) {
	if err := req.validateRequest(); err != nil {
		return nil, err
	}
	if !traceID.IsValid() {
		traceID = obs.NewTraceID()
	}
	id := fmt.Sprintf("j%06d", s.seq.Add(1))
	jobCtx, jobCancel := context.WithCancel(s.baseCtx)
	job := newJob(id, jobCtx, jobCancel)
	job.digest = req.resultKey()
	job.traceID = traceID
	job.idemKey = idemKey

	if cached, ok := s.incr.GetObject(incr.GranResult, job.digest); ok {
		job.mu.Lock()
		job.cacheHit = true
		job.mu.Unlock()
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			jobCancel()
			return nil, ErrDraining
		}
		s.registerLocked(job)
		s.mu.Unlock()
		s.metrics.CacheHitsResult.Add(1)
		s.metrics.JobsDone.Add(1)
		s.finishJob(job, StatusDone, cached.(*Result), nil)
		return job, nil
	}

	job.req = req
	// The draining check and the enqueue must be one atomic step: Shutdown
	// sets draining and closes the queue under the same lock, so checking
	// and sending outside it could send on a closed channel.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		jobCancel()
		return nil, ErrDraining
	}
	select {
	case s.queue <- job:
		s.registerLocked(job)
		s.mu.Unlock()
		s.metrics.CacheMisses.Add(1)
		s.metrics.JobsQueued.Add(1)
		return job, nil
	default:
		s.mu.Unlock()
		jobCancel()
		return nil, ErrQueueFull
	}
}

// registerLocked adds a submitted job to the job table and its
// Idempotency-Key, if any, to the key map. s.mu must be held.
func (s *Server) registerLocked(job *Job) {
	s.jobs[job.ID] = job
	if job.idemKey != "" {
		s.idem[job.idemKey] = job
	}
}

// finishJob moves a job to a terminal state and records it in the
// finished-job history, evicting the oldest terminal jobs (and their
// Idempotency-Keys) beyond JobHistoryLimit so s.jobs cannot grow
// without bound. Once the job is terminal its spans are exported and
// the flight recorder decides whether to keep a recording — both
// strictly after the result is visible, so neither can delay or alter
// it.
func (s *Server) finishJob(job *Job, status Status, result *Result, err error) {
	if !job.finish(status, result, err) {
		return
	}
	s.mu.Lock()
	s.finished = append(s.finished, job.ID)
	for len(s.finished) > s.cfg.JobHistoryLimit {
		delete(s.idem, s.jobs[s.finished[0]].idemKey)
		delete(s.jobs, s.finished[0])
		s.finished[0] = ""
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
	s.exportJobSpans(job)
	s.flights.observe(job)
}

// exportJobSpans hands the finished job's span records to the
// configured exporter. Cache-hit jobs never execute and have no tracer;
// they export nothing.
func (s *Server) exportJobSpans(job *Job) {
	exp := s.cfg.SpanExporter
	if exp == nil {
		return
	}
	job.mu.Lock()
	tr := job.tracer
	job.mu.Unlock()
	if tr == nil {
		return
	}
	if err := exp.ExportSpans(tr.Records()); err != nil {
		s.logger.Warn("span export failed", "job", job.ID,
			"trace_id", job.traceID.String(), "error", err)
	}
}

// worker drains the queue until it closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job end to end. Every log line it emits carries
// the job's trace id, so one grep joins slog records with the exported
// spans and the /v2 trace endpoint.
func (s *Server) runJob(job *Job) {
	logger := s.logger.With("job", job.ID, "trace_id", job.traceID.String())
	defer func() {
		if r := recover(); r != nil {
			s.failPanicked(job, logger, r, debug.Stack())
		}
	}()
	if job.ctx.Err() != nil {
		// Canceled (or drained) while still queued.
		s.metrics.JobsCanceled.Add(1)
		s.finishJob(job, StatusCanceled, nil, job.ctx.Err())
		return
	}
	req := job.req
	timeout := s.cfg.DefaultJobTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxJobTimeout {
		timeout = s.cfg.MaxJobTimeout
	}
	ctx, cancel := context.WithTimeout(job.ctx, timeout)
	defer cancel()

	wait := job.markRunning()
	s.metrics.ObserveQueueWait(wait)
	s.metrics.JobsRunning.Add(1)
	defer s.metrics.JobsRunning.Add(-1)
	logger.Info("job started",
		"modes", len(req.Modes), "queue_wait_ms", wait.Milliseconds())

	// The flight watchdog arms once the job is running: if it is still
	// going when the latency threshold passes, the recorder captures a
	// CPU profile and goroutine dump mid-flight.
	stopWatch := s.flights.watch(job)
	defer stopWatch()

	start := time.Now()
	result, err := s.execute(ctx, job, req)
	elapsed := time.Since(start)
	// Each outcome is logged before the job turns terminal, so whoever
	// waits on job.Done already sees the log record.
	var pe *cliquePanic
	switch {
	case err == nil:
		s.incr.PutObject(incr.GranResult, job.digest, result)
		s.metrics.JobsDone.Add(1)
		logger.Info("job done", "elapsed_ms", elapsed.Milliseconds())
		s.finishJob(job, StatusDone, result, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.metrics.JobsCanceled.Add(1)
		logger.Info("job canceled",
			"stage", job.currentStage(), "elapsed_ms", elapsed.Milliseconds())
		s.finishJob(job, StatusCanceled, nil, err)
	case errors.As(err, &pe):
		s.failPanicked(job, logger, pe.value, pe.stack)
	default:
		s.metrics.JobsFailed.Add(1)
		logger.Warn("job failed",
			"stage", job.currentStage(),
			"elapsed_ms", elapsed.Milliseconds(), "error", err)
		s.finishJob(job, StatusFailed, nil, err)
	}
}

// failPanicked fails a job whose merge panicked, on the worker itself or
// on a clique goroutine. A panic in the merge flow on one job's input
// must not take down the daemon: fail the job and keep the worker alive.
func (s *Server) failPanicked(job *Job, logger *slog.Logger, value any, stack []byte) {
	logger.Error("job panicked",
		"stage", job.currentStage(), "panic", value, "stack", string(stack))
	job.notePanic(fmt.Sprint(value), stack)
	s.metrics.JobsFailed.Add(1)
	s.finishJob(job, StatusFailed, nil, fmt.Errorf("internal error: %v", value))
}

// execute runs the parse → merge → validate pipeline for one job.
func (s *Server) execute(ctx context.Context, job *Job, req *MergeRequest) (*Result, error) {
	observe := func(stage string, d time.Duration) {
		job.addStage(stage, d)
		s.metrics.ObserveStage(stage, d)
	}

	// The job's tracer records the whole pipeline as one span tree, served
	// at GET /v2/jobs/{id}/trace after (and during) execution. It carries
	// the job's trace id so exported spans join the submitter's trace.
	tracer := obs.NewTracerWithID(job.traceID)
	job.setTracer(tracer)
	root := tracer.Start("job")
	root.SetAttr("job_id", job.ID)
	defer root.Finish()

	// Parse (or reuse) the design, then parse the modes against it. The
	// shared singleflight build runs under the server's base context, not
	// the job's, so one job's cancellation cannot poison the cache entry;
	// the waiter still leaves promptly when its own ctx is done.
	job.noteStage("parse")
	parseSpan := root.Child("parse")
	parseStart := time.Now()
	g, hit, err := graph.LoadCached(ctx, s.baseCtx, s.incr, req.source())
	if hit {
		s.metrics.CacheHitsDesign.Add(1)
		parseSpan.Add("design_cache_hit", 1)
	}
	if err == nil {
		err = ctx.Err()
	}
	var modes []*sdc.Mode
	if err == nil {
		modes, err = fabric.ParseModes(g.Design, req.Modes)
	}
	if err != nil {
		parseSpan.Finish()
		return nil, err
	}
	parseSpan.Add("modes", int64(len(modes)))
	parseSpan.Finish()
	observe("parse", time.Since(parseStart))

	job.noteStage("merge")
	opt := core.Options{
		Tolerance:           req.Options.Tolerance,
		MaxRefineIterations: req.Options.MaxRefineIterations,
		Parallelism:         s.cfg.MergeParallelism,
		Corners:             req.Corners,
		STA:                 sta.Options{Workers: req.Options.Workers},
		StageHook:           observe,
		Trace:               root,
		Cache:               s.incr,
	}
	mb, cliques, err := core.PlanMerge(g, modes, opt)
	if err != nil {
		return nil, err
	}
	merged, reports, err := s.mergeCliques(ctx, req, g, modes, cliques, opt)
	if err != nil {
		return nil, err
	}
	result := &Result{
		Reports:   reports,
		Groups:    mb.GroupNames(cliques),
		Conflicts: mb.Conflicts,
	}
	for _, m := range merged {
		result.Merged = append(result.Merged, MergedMode{Name: m.Name, SDC: sdc.Write(m)})
	}

	// On scenario-matrix requests, reduce the #modes × #corners input
	// matrix to #cliques × #corners deployable entries: each merged mode
	// deployed in each corner (merged text + that corner's overlay), with
	// the member scenario keys it covers as provenance.
	if len(req.Corners) > 0 {
		for ci, m := range result.Merged {
			for _, crn := range req.Corners {
				entry := MatrixEntry{Mode: m.Name, Corner: crn.Name, SDC: crn.Deploy(m.SDC)}
				for _, member := range result.Groups[ci] {
					entry.Scenarios = append(entry.Scenarios, member+"@"+crn.Name)
				}
				result.Matrix = append(result.Matrix, entry)
			}
		}
	}

	if req.wantValidate() {
		job.noteStage("validate")
		validateSpan := root.Child("validate")
		defer validateSpan.Finish()
		validateStart := time.Now()
		for ci, clique := range cliques {
			if len(clique) < 2 {
				continue
			}
			group := make([]*sdc.Mode, len(clique))
			for i, mi := range clique {
				group[i] = modes[mi]
			}
			vopt := opt
			vopt.Trace = validateSpan.Child("validate:" + merged[ci].Name)
			res, err := core.CheckEquivalence(ctx, g, group, merged[ci], vopt)
			vopt.Trace.Finish()
			if err != nil {
				return nil, fmt.Errorf("validating %s: %w", merged[ci].Name, err)
			}
			result.Equivalence = append(result.Equivalence, EquivalenceReport{
				Merged:      merged[ci].Name,
				Equivalent:  res.Equivalent(),
				Matched:     res.MatchedGroups,
				Pessimistic: res.PessimisticGroups,
				Optimistic:  res.OptimisticMismatches,
				Unresolved:  len(res.Unresolved),
			})
		}
		observe("validate", time.Since(validateStart))
	}
	return result, nil
}

// mergeCliques merges every clique and assembles the results in clique
// order. A job merges its own cliques in-process, LocalExecutors at a
// time: at the default of one, the sequential loop of core.MergeAll on
// the job's own goroutine. While remote workers are registered, or on a
// pure dispatcher, DispatchWidth cliques are in flight and multi-mode
// ones are shared with workers (mergeShared). Determinism of the merge
// engine plus indexed assembly keeps the output byte-identical.
func (s *Server) mergeCliques(ctx context.Context, req *MergeRequest, g *graph.Graph, modes []*sdc.Mode, cliques [][]int, opt core.Options) ([]*sdc.Mode, []*core.Report, error) {
	share := s.locals == 0 || s.fabric.HasWorkers()
	// slots holds the job's in-process merges while it shares; a pure
	// dispatcher's is unbuffered and never takes one.
	width, slots := s.locals, make(chan struct{}, s.locals)
	if share {
		width = max(width, s.cfg.Fabric.DispatchWidth)
	}
	merged := make([]*sdc.Mode, len(cliques))
	reports := make([]*core.Report, len(cliques))
	err := forEachClique(ctx, len(cliques), width, func(cx context.Context, ci int) error {
		if req.testPanic && ci == 0 {
			panic("test-injected panic")
		}
		group := make([]*sdc.Mode, len(cliques[ci]))
		for i, mi := range cliques[ci] {
			group[i] = modes[mi]
		}
		var err error
		if share && len(group) > 1 {
			merged[ci], reports[ci], err = s.mergeShared(cx, req, g, cliques[ci], group, opt, slots)
		} else {
			merged[ci], reports[ci], err = s.mergeLocal(cx, g, group, opt)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return merged, reports, nil
}

// cliquePanic is a panic recovered on a forEachClique goroutine. runJob
// gives it the same crash accounting as a panic on the job's own
// goroutine.
type cliquePanic struct {
	value any
	stack []byte
}

func (p *cliquePanic) Error() string { return fmt.Sprintf("clique merge panic: %v", p.value) }

// forEachClique calls fn for every clique index in [0, n) on at most
// width goroutines. The first failure cancels the remaining calls and
// is returned; a panic on a helper goroutine comes back as a
// *cliquePanic. Once ctx has ended no further call starts and, absent
// an earlier failure, the result is ctx.Err(). At width 1 the calls run
// in order on the caller's goroutine, so a panic there unwinds the
// caller as usual.
func forEachClique(ctx context.Context, n, width int, fn func(context.Context, int) error) error {
	if width <= 1 {
		for ci := 0; ci < n; ci++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, ci); err != nil {
				return err
			}
		}
		return nil
	}
	cx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	fail := func(err error) { once.Do(func() { first = err }); cancel() }
	slots := make(chan struct{}, width)
	for ci := 0; ci < n; ci++ {
		slots <- struct{}{} // a running call frees its slot, canceled or not
		if cx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer func() {
				if v := recover(); v != nil {
					fail(&cliquePanic{value: v, stack: debug.Stack()})
				}
				<-slots
				wg.Done()
			}()
			if err := fn(cx, ci); err != nil {
				fail(err)
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// mergeLocal merges one clique in-process, counting a multi-mode one as
// completed in the cluster view.
func (s *Server) mergeLocal(ctx context.Context, g *graph.Graph, group []*sdc.Mode, opt core.Options) (*sdc.Mode, *core.Report, error) {
	m, rep, err := core.MergeClique(ctx, g, group, opt)
	if err == nil && len(group) > 1 {
		s.fabric.CompleteLocal()
	}
	return m, rep, err
}

// mergeShared merges the multi-mode clique req.Modes[members] (parsed as
// group) in-process when one of the job's slots is free. Otherwise it
// publishes the clique's spec, carrying each member's SDC as the user
// sent it, and whichever side claims it first merges it: a remote
// worker, whose artifact is decoded under a merge:<names> span marked
// fabric=1, or this job once a slot frees while the clique is queued.
func (s *Server) mergeShared(ctx context.Context, req *MergeRequest, g *graph.Graph, members []int, group []*sdc.Mode, opt core.Options, slots chan struct{}) (*sdc.Mode, *core.Report, error) {
	select {
	case slots <- struct{}{}:
		defer func() { <-slots }()
		return s.mergeLocal(ctx, g, group, opt)
	default:
	}
	names := make([]string, len(group))
	wire := make([]ModeInput, len(group))
	for i, mi := range members {
		names[i] = group[i].Name
		wire[i] = req.Modes[mi]
	}
	published := time.Now()
	tk, err := s.fabric.Publish(fabric.NewSpec(req.source(), g, opt, wire, group))
	if err != nil {
		return nil, nil, fmt.Errorf("merging %v: %w", names, err)
	}
	defer tk.Release()
	var slot chan struct{} // slots while the clique may be claimable
	for {
		select {
		case <-tk.Done():
			span := opt.Trace.ChildSince("merge:"+strings.Join(names, "+"), published)
			defer span.Finish()
			span.SetAttr("design", g.Design.Name)
			span.SetAttr("members", strings.Join(names, ","))
			span.SetAttr("fabric", "1")
			b, err := tk.Result()
			if err != nil {
				return nil, nil, fmt.Errorf("merging %v: %w", names, err)
			}
			m, rep, err := core.DecodeCliqueArtifact(b, g)
			if err != nil {
				return nil, nil, fmt.Errorf("merging %v: decoding artifact: %w", names, err)
			}
			return m, rep, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-tk.Claimable():
			slot = slots
		case slot <- struct{}{}:
			if tk.Claim() {
				defer func() { <-slots }()
				return s.mergeLocal(ctx, g, group, opt)
			}
			<-slots
			slot = nil
		}
	}
}

// Shutdown drains the server: no new submissions, queued and running jobs
// get until ctx is done to finish, then everything left is canceled. It
// returns nil on a clean drain or ctx.Err() when the grace period ran
// out (all jobs are still accounted for: late ones finish canceled).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	// The coordinator closes once no job can publish cliques (workers
	// drained), failing anything still queued with fabric.ErrClosed.
	select {
	case <-done:
		s.baseCancel()
		s.fabric.Close()
		return nil
	case <-ctx.Done():
		// Grace period over: cancel every job (running ones abort
		// cooperatively through their contexts) and wait for workers.
		s.baseCancel()
		<-done
		s.fabric.Close()
		return ctx.Err()
	}
}

// DrainTimeoutStatus summarizes queue state for /v2/stats.
type DrainTimeoutStatus struct {
	Draining bool `json:"draining"`
	Queued   int  `json:"queued"`
	Jobs     int  `json:"jobs"`
}

// QueueStatus snapshots queue occupancy.
func (s *Server) QueueStatus() DrainTimeoutStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return DrainTimeoutStatus{Draining: s.draining, Queued: len(s.queue), Jobs: len(s.jobs)}
}

// idSafe reports whether a job id is well-formed (defense for path
// parameters).
func idSafe(id string) bool {
	return id != "" && !strings.ContainsAny(id, "/\\")
}
