package fabric

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"modemerge/internal/incr"
)

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// LeaseTTL is how long a claimed clique job may go without completion
	// before it is presumed lost (worker death) and requeued. Default 30s.
	LeaseTTL time.Duration
	// MaxAttempts bounds executions of one job across lease expiries
	// before it fails permanently. Default 3.
	MaxAttempts int
	// LocalExecutors is how many coordinator-side goroutines pull from
	// the same queue as remote workers, so a cluster of one still makes
	// progress. They claim under the reserved worker id "local". Default
	// 1; 0 disables local execution (pure dispatcher).
	LocalExecutors int
	// Logger receives fabric lifecycle logs. Default slog.Default().
	Logger *slog.Logger
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// LocalWorkerID is the worker id the coordinator's own executors claim
// under.
const LocalWorkerID = "local"

// ErrClosed rejects operations on a closed coordinator.
var ErrClosed = errors.New("fabric: coordinator closed")

// task is one queued clique job and its subscribers.
type task struct {
	spec     Spec
	attempts int
	lessee   string    // worker holding the lease ("" while pending)
	expiry   time.Time // lease deadline
	subs     []chan taskResult
}

type taskResult struct {
	artifact []byte
	err      error
}

// Coordinator owns the clique job queue: Exec enqueues and waits,
// workers claim jobs (remote via the wire API, local via executor
// goroutines), leases expire back into the queue on worker death, and
// every artifact round-trips through the shared blob store.
type Coordinator struct {
	cfg   CoordinatorConfig
	store incr.BlobStore
	exec  *Executor
	log   *slog.Logger

	mu      sync.Mutex
	closed  bool
	pending []*task          // FIFO; work-stealing pops the head
	byKey   map[string]*task // pending + leased tasks by clique key
	leased  map[string]*task // subset of byKey currently claimed
	workers map[string]*workerInfo
	waiters []chan *task // long-poll claimers, FIFO

	// counters (guarded by mu)
	steals    int64 // jobs claimed by remote workers
	retries   int64 // lease expiries requeued
	completed int64
	failed    int64

	stop chan struct{}
	wg   sync.WaitGroup
}

type workerInfo struct {
	id        string
	addr      string
	joined    time.Time
	lastSeen  time.Time
	active    int
	completed int64
}

// NewCoordinator starts a coordinator, including its lease reaper and
// any configured local executors. The local executors merge through
// exec, and exec's artifact store is the store shared with workers.
func NewCoordinator(exec *Executor, cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		store:   exec.store,
		exec:    exec,
		log:     cfg.Logger,
		byKey:   map[string]*task{},
		leased:  map[string]*task{},
		workers: map[string]*workerInfo{},
		stop:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.reaper()
	for i := 0; i < cfg.LocalExecutors; i++ {
		c.wg.Add(1)
		go c.localExecutor()
	}
	return c
}

// Close stops the reaper and local executors and fails every queued and
// in-flight job with ErrClosed.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	var all []*task
	for _, t := range c.byKey {
		all = append(all, t)
	}
	c.pending = nil
	c.byKey = map[string]*task{}
	c.leased = map[string]*task{}
	for _, w := range c.waiters {
		close(w)
	}
	c.waiters = nil
	c.mu.Unlock()
	for _, t := range all {
		deliver(t, taskResult{err: ErrClosed})
	}
	c.wg.Wait()
}

func deliver(t *task, r taskResult) {
	for _, sub := range t.subs {
		sub <- r // buffered 1 per subscriber; never blocks
	}
	t.subs = nil
}

// Exec submits one clique job and blocks until its artifact is
// available (from any worker, or a local executor) or ctx is done.
// Identical keys submitted concurrently share one execution.
func (c *Coordinator) Exec(ctx context.Context, spec Spec) ([]byte, error) {
	if spec.Key == "" {
		return nil, fmt.Errorf("fabric: spec has no key")
	}
	// Artifact already in the store (an earlier job, another node): done.
	if b, err := c.store.Get(string(incr.GranClique), spec.Key); err == nil {
		return b, nil
	}
	sub := make(chan taskResult, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if t, ok := c.byKey[spec.Key]; ok {
		t.subs = append(t.subs, sub) // piggyback on the in-flight job
		c.mu.Unlock()
	} else {
		t := &task{spec: spec, subs: []chan taskResult{sub}}
		c.byKey[spec.Key] = t
		c.enqueueLocked(t)
		c.mu.Unlock()
	}
	select {
	case r := <-sub:
		return r.artifact, r.err
	case <-ctx.Done():
		// The job stays queued for other subscribers; our result slot is
		// buffered so completion never blocks on us.
		return nil, ctx.Err()
	}
}

// enqueueLocked puts t at the queue tail, handing it directly to a
// long-poll waiter when one is parked. Callers hold c.mu.
func (c *Coordinator) enqueueLocked(t *task) {
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		select {
		case w <- t:
			return
		default: // waiter gave up (poll timeout); try the next
		}
	}
	c.pending = append(c.pending, t)
}

// Join registers (or refreshes) a worker.
func (c *Coordinator) Join(workerID, addr string) error {
	if workerID == "" || workerID == LocalWorkerID {
		return fmt.Errorf("fabric: invalid worker id %q", workerID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	w, ok := c.workers[workerID]
	if !ok {
		w = &workerInfo{id: workerID, joined: time.Now()}
		c.workers[workerID] = w
		c.log.Info("fabric worker joined", "worker", workerID, "addr", addr)
	}
	w.addr = addr
	w.lastSeen = time.Now()
	return nil
}

// Claim hands the next pending clique job to workerID, long-polling up
// to wait. It returns (nil, nil) when no work arrived in time, and
// ErrClosed after Close.
func (c *Coordinator) Claim(ctx context.Context, workerID string, wait time.Duration) (*Spec, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.touchLocked(workerID)
	if len(c.pending) > 0 {
		t := c.pending[0]
		c.pending = c.pending[1:]
		spec := c.leaseLocked(t, workerID)
		c.mu.Unlock()
		return spec, nil
	}
	if wait <= 0 {
		c.mu.Unlock()
		return nil, nil
	}
	w := make(chan *task, 1)
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case t, ok := <-w:
		if !ok {
			return nil, ErrClosed
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		c.touchLocked(workerID)
		if !c.liveLocked(t) {
			return nil, nil // completed late while handed over
		}
		return c.leaseLocked(t, workerID), nil
	case <-timer.C:
	case <-ctx.Done():
	}
	// Timed out or canceled: withdraw the waiter. A task may have been
	// handed to w concurrently — requeue it rather than lose it.
	c.mu.Lock()
	for i, waiter := range c.waiters {
		if waiter == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	var stranded *Spec
	select {
	case t, ok := <-w:
		if ok && c.liveLocked(t) {
			stranded = c.leaseLocked(t, workerID)
		}
	default:
	}
	c.mu.Unlock()
	if stranded != nil {
		return stranded, nil
	}
	return nil, ctx.Err()
}

// leaseLocked marks t claimed by workerID. Callers hold c.mu.
func (c *Coordinator) leaseLocked(t *task, workerID string) *Spec {
	t.lessee = workerID
	t.expiry = time.Now().Add(c.cfg.LeaseTTL)
	t.attempts++
	c.leased[t.spec.Key] = t
	if w, ok := c.workers[workerID]; ok {
		w.active++
	}
	if workerID != LocalWorkerID {
		c.steals++
	}
	spec := t.spec
	return &spec
}

func (c *Coordinator) touchLocked(workerID string) {
	if w, ok := c.workers[workerID]; ok {
		w.lastSeen = time.Now()
	}
}

// Complete reports one claimed job's outcome. On success the artifact
// must already be in the shared store under the clique key; the
// coordinator reads it back and fans it out to subscribers. A success
// from any worker counts once its artifact checks out, even when that
// worker's lease already expired and the job was requeued or re-claimed:
// all executions of one key write identical bytes, so the first
// artifact settles the job. An error, or a success without an artifact,
// counts only from the current lessee; stale ones are ignored.
func (c *Coordinator) Complete(workerID, key string, execErr string) error {
	var art []byte
	var artErr error
	if execErr == "" {
		art, artErr = c.store.Get(string(incr.GranClique), key)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.touchLocked(workerID)
	t, ok := c.byKey[key]
	current := ok && c.leased[key] == t && t.lessee == workerID
	if !ok || (!current && (execErr != "" || artErr != nil)) {
		c.mu.Unlock()
		return nil // stale or duplicate completion
	}
	if w, ok := c.workers[workerID]; ok && execErr == "" {
		w.completed++
	}
	if execErr == "" && artErr != nil {
		// Completion without a durable artifact: treat as a lost
		// execution and requeue (bounded by MaxAttempts).
		c.releaseLocked(t)
		c.mu.Unlock()
		c.log.Warn("fabric completion without artifact", "worker", workerID, "key", key, "error", artErr)
		c.requeue(t, fmt.Sprintf("artifact missing after completion by %s", workerID))
		return nil
	}
	c.settleLocked(t)
	r := taskResult{artifact: art}
	if execErr != "" {
		// A worker-reported merge error is deterministic (bad input, not
		// worker death): retrying elsewhere would fail identically, so
		// fail the job now.
		r = taskResult{err: fmt.Errorf("fabric: clique %.12s failed on %s: %s", key, workerID, execErr)}
		c.failed++
	} else {
		c.completed++
	}
	c.mu.Unlock()
	deliver(t, r)
	return nil
}

// liveLocked reports whether t is still an unsettled job: pending,
// leased, or on its way between the two. Callers hold c.mu.
func (c *Coordinator) liveLocked(t *task) bool { return c.byKey[t.spec.Key] == t }

// releaseLocked ends t's lease, if it has one. Callers hold c.mu.
func (c *Coordinator) releaseLocked(t *task) {
	if c.leased[t.spec.Key] != t {
		return
	}
	delete(c.leased, t.spec.Key)
	if w, ok := c.workers[t.lessee]; ok && w.active > 0 {
		w.active--
	}
}

// settleLocked takes t off the queue: its lease released, and out of
// pending and byKey. Callers hold c.mu.
func (c *Coordinator) settleLocked(t *task) {
	c.releaseLocked(t)
	for i, p := range c.pending {
		if p == t {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	delete(c.byKey, t.spec.Key)
}

// requeue returns a lost task to the queue, failing it permanently when
// attempts are exhausted. A task settled meanwhile (a late completion
// arrived) stays settled.
func (c *Coordinator) requeue(t *task, why string) {
	c.mu.Lock()
	if c.closed || !c.liveLocked(t) {
		c.mu.Unlock()
		return
	}
	if t.attempts >= c.cfg.MaxAttempts {
		attempts := t.attempts
		delete(c.byKey, t.spec.Key)
		c.failed++
		c.mu.Unlock()
		deliver(t, taskResult{err: fmt.Errorf(
			"fabric: clique %.12s lost after %d attempts (%s)", t.spec.Key, attempts, why)})
		return
	}
	t.lessee = ""
	attempts := t.attempts
	key := t.spec.Key
	c.retries++
	c.enqueueLocked(t)
	c.mu.Unlock()
	c.log.Warn("fabric clique requeued", "key", key, "attempts", attempts, "why", why)
}

// reaper expires leases whose worker went silent.
func (c *Coordinator) reaper() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		var expired []*task
		var lessees []string
		c.mu.Lock()
		for _, t := range c.leased {
			if now.After(t.expiry) {
				c.releaseLocked(t)
				expired = append(expired, t)
				lessees = append(lessees, t.lessee)
			}
		}
		c.mu.Unlock()
		for i, t := range expired {
			c.requeue(t, fmt.Sprintf("lease expired (worker %s presumed dead)", lessees[i]))
		}
	}
}

// localExecutor is the coordinator's own merge worker: it claims from
// the same queue as remote workers, so work is stolen by whichever node
// is free first.
func (c *Coordinator) localExecutor() {
	defer c.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-c.stop
		cancel()
	}()
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		spec, err := c.Claim(ctx, LocalWorkerID, time.Second)
		if err != nil || spec == nil {
			if errors.Is(err, ErrClosed) {
				return
			}
			continue
		}
		_, execErr := c.exec.Execute(ctx, spec)
		msg := ""
		if execErr != nil {
			msg = execErr.Error()
		}
		c.Complete(LocalWorkerID, spec.Key, msg) //nolint:errcheck // closed coordinator drops outcomes by design
	}
}

// WorkerStatus is one worker's row in the cluster view.
type WorkerStatus struct {
	ID         string `json:"id"`
	Addr       string `json:"addr,omitempty"`
	LastSeenMS int64  `json:"last_seen_ms"`
	Active     int    `json:"active"`
	Completed  int64  `json:"completed"`
}

// InFlight is one claimed clique job in the cluster view.
type InFlight struct {
	Key      string `json:"key"`
	Worker   string `json:"worker"`
	Attempts int    `json:"attempts"`
	Members  int    `json:"members"`
}

// ClusterStatus is the coordinator's queue + registry snapshot, served
// at GET /v2/cluster.
type ClusterStatus struct {
	Enabled        bool           `json:"enabled"`
	LocalExecutors int            `json:"local_executors"`
	Workers        []WorkerStatus `json:"workers"`
	Pending        int            `json:"pending"`
	InFlight       []InFlight     `json:"in_flight"`
	Steals         int64          `json:"steals"`
	Retries        int64          `json:"retries"`
	Completed      int64          `json:"completed"`
	Failed         int64          `json:"failed"`
}

// Status snapshots the cluster for serving.
func (c *Coordinator) Status() ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ClusterStatus{
		Enabled:        true,
		LocalExecutors: c.cfg.LocalExecutors,
		Workers:        []WorkerStatus{},
		Pending:        len(c.pending),
		InFlight:       []InFlight{},
		Steals:         c.steals,
		Retries:        c.retries,
		Completed:      c.completed,
		Failed:         c.failed,
	}
	now := time.Now()
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStatus{
			ID: w.id, Addr: w.addr,
			LastSeenMS: now.Sub(w.lastSeen).Milliseconds(),
			Active:     w.active, Completed: w.completed,
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	for key, t := range c.leased {
		st.InFlight = append(st.InFlight, InFlight{
			Key: key, Worker: t.lessee, Attempts: t.attempts, Members: len(t.spec.Members),
		})
	}
	sort.Slice(st.InFlight, func(i, j int) bool { return st.InFlight[i].Key < st.InFlight[j].Key })
	return st
}
