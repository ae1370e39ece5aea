package fabric

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"time"

	"modemerge/internal/incr"
)

// WorkerConfig tunes a merge worker.
type WorkerConfig struct {
	// ID names the worker in the cluster view. Default: hostname-pid.
	ID string
	// Parallelism bounds intra-merge worker pools (never affects merged
	// bytes). Default GOMAXPROCS.
	Parallelism int
	// PollWait is the long-poll duration per request. Default 10s.
	PollWait time.Duration
	// Logger receives worker lifecycle logs. Default slog.Default().
	Logger *slog.Logger
	// HTTPClient overrides the wire client (tests). Default: dedicated
	// client without a global timeout.
	HTTPClient *http.Client
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		c.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.PollWait <= 0 {
		c.PollWait = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Worker is one remote merge node: it joins a coordinator, long-polls
// for clique jobs, executes them against the coordinator's artifact
// store (over the blob passthrough) and reports completions. Dying at
// any point — mid-merge, mid-store, mid-complete — is safe: the
// coordinator's lease expires and the job re-runs elsewhere with
// byte-identical results.
type Worker struct {
	cfg    WorkerConfig
	client *Client
	exec   *Executor
	log    *slog.Logger
}

// NewWorker creates a worker for the coordinator at joinURL.
func NewWorker(joinURL string, cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	client := NewClient(joinURL, cfg.HTTPClient)
	return &Worker{
		cfg:    cfg,
		client: client,
		exec:   NewExecutor(incr.New(4096).WithStore(client.BlobStore()), cfg.Parallelism),
		log:    cfg.Logger.With("worker", cfg.ID),
	}
}

// ID returns the worker's cluster identity.
func (w *Worker) ID() string { return w.cfg.ID }

// Run joins the coordinator and processes clique jobs until ctx is
// done. Transient wire errors back off and retry; a wire version
// mismatch is permanent and returned.
func (w *Worker) Run(ctx context.Context) error {
	ttl, err := w.joinWithRetry(ctx)
	if err != nil {
		return err
	}
	w.log.Info("joined fabric", "lease_ttl", ttl)
	backoff := time.Second
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		spec, err := w.client.Poll(w.cfg.ID, w.cfg.PollWait)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.log.Warn("poll failed; backing off", "error", err, "backoff", backoff)
			if !sleep(ctx, backoff) {
				return ctx.Err()
			}
			if backoff < 30*time.Second {
				backoff *= 2
			}
			// The coordinator may have restarted: re-join (best effort;
			// polls also refresh registration).
			w.client.Join(w.cfg.ID, "") //nolint:errcheck // next poll surfaces persistent failure
			continue
		}
		backoff = time.Second
		if spec == nil {
			continue // poll timeout; loop
		}
		w.runOne(ctx, spec)
	}
}

func (w *Worker) joinWithRetry(ctx context.Context) (time.Duration, error) {
	backoff := time.Second
	for {
		ttl, err := w.client.Join(w.cfg.ID, "")
		if err == nil {
			return ttl, nil
		}
		if errors.Is(err, context.Canceled) || ctx.Err() != nil {
			return 0, ctx.Err()
		}
		// A version conflict or a rejected request never heals;
		// connection errors might.
		if isPermanent(err) {
			return 0, err
		}
		w.log.Warn("join failed; backing off", "error", err, "backoff", backoff)
		if !sleep(ctx, backoff) {
			return 0, ctx.Err()
		}
		if backoff < 30*time.Second {
			backoff *= 2
		}
	}
}

// isPermanent reports whether the coordinator refused the request
// itself: a conflict (wire version mismatch) or a bad request (invalid
// worker id), which no retry can fix.
func isPermanent(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && (se.Status == http.StatusConflict || se.Status == http.StatusBadRequest)
}

func (w *Worker) runOne(ctx context.Context, spec *Spec) {
	start := time.Now()
	_, err := w.exec.Execute(ctx, spec)
	execErr := ""
	if err != nil {
		if ctx.Err() != nil {
			// Shutting down mid-merge: report nothing; the lease expiry
			// reschedules the job (the worker-death path, exercised on
			// purpose).
			w.log.Info("abandoning clique on shutdown", "key", spec.Key)
			return
		}
		execErr = err.Error()
		w.log.Warn("clique merge failed", "key", spec.Key, "error", err)
	} else {
		w.log.Info("clique merged", "key", spec.Key,
			"members", len(spec.Members), "elapsed_ms", time.Since(start).Milliseconds())
	}
	if err := w.client.Complete(w.cfg.ID, spec.Key, execErr); err != nil {
		w.log.Warn("completion report failed; lease will expire", "key", spec.Key, "error", err)
	}
}

func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
