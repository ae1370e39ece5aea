package fabric

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"modemerge/internal/incr"
)

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// LeaseTTL is how long a claimed clique job may go without completion
	// before it is presumed lost (worker death) and requeued, and how long
	// an idle worker may stay silent before it is dropped from the
	// registry. Default 30s.
	LeaseTTL time.Duration
	// MaxAttempts bounds executions of one job across lease expiries
	// before it fails permanently. Default 3.
	MaxAttempts int
	// LocalExecutors, reported in Status, is how many of a job's cliques
	// the job merges in-process at once; 0 is a pure dispatcher.
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

// ErrClosed rejects operations on a closed coordinator.
var ErrClosed = errors.New("fabric: coordinator closed")

// task is one queued clique job and its subscribers.
type task struct {
	spec     Spec
	attempts int
	lessee   string    // worker holding the lease ("" while pending)
	expiry   time.Time // lease deadline
	held     *Ticket   // subscriber merging it in-process, if any
	subs     []*Ticket
}

// Ticket is one subscription to a published clique job: the job settles
// on the fabric (Done), or the subscriber claims it back to merge it.
type Ticket struct {
	c    *Coordinator
	t    *task         // nil when the artifact was already stored
	wake chan struct{} // holds a token while the job may be claimable
	done chan struct{}
	art  []byte
	err  error
}

// Done closes once the job settled on the fabric.
func (tk *Ticket) Done() <-chan struct{} { return tk.done }

// Result returns the settled job's artifact bytes or error, after Done.
func (tk *Ticket) Result() ([]byte, error) { return tk.art, tk.err }

// Claimable receives when the job may be (back) in the queue.
func (tk *Ticket) Claimable() <-chan struct{} { return tk.wake }

// Claim takes the queued job for the subscriber to merge itself. It
// fails while a worker holds the job or after it settled.
func (tk *Ticket) Claim() bool {
	c := tk.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if tk.t == nil || !c.liveLocked(tk.t) || !c.unqueueLocked(tk.t) {
		return false
	}
	tk.t.held = tk
	return true
}

// Release ends the subscription. A job the subscriber claimed goes back
// on the queue when other subscribers still wait for it, and a queued
// job nobody waits for any more leaves the queue.
func (tk *Ticket) Release() {
	c, t := tk.c, tk.t
	if t == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.subs = slices.DeleteFunc(t.subs, func(sub *Ticket) bool { return sub == tk })
	if !c.liveLocked(t) {
		return
	}
	if t.held == tk {
		t.held = nil
		if len(t.subs) > 0 {
			c.enqueueLocked(t)
		} else {
			delete(c.byKey, t.spec.Key)
		}
	} else if len(t.subs) == 0 && c.unqueueLocked(t) {
		delete(c.byKey, t.spec.Key)
	}
}

// Coordinator owns the clique job queue: jobs publish cliques and wait,
// remote workers claim them over the wire API, a publishing job may
// claim its own clique back to merge it in-process, leases expire back
// into the queue on worker death, and every remote artifact round-trips
// through the shared blob store.
type Coordinator struct {
	cfg   CoordinatorConfig
	store incr.BlobStore // nil: no worker can join
	log   *slog.Logger

	mu      sync.Mutex
	closed  bool
	pending []*task          // FIFO; work-stealing pops the head
	byKey   map[string]*task // pending, leased and held tasks by clique key
	leased  map[string]*task // subset of byKey currently claimed
	workers map[string]*workerInfo
	queued  chan struct{} // closed and replaced on every enqueue

	// counters (guarded by mu)
	steals    int64 // jobs claimed by remote workers
	retries   int64 // lease expiries requeued
	completed int64 // remote completions plus in-process merges
	failed    int64

	stop chan struct{}
	wg   sync.WaitGroup
}

type workerInfo struct {
	id        string
	addr      string
	joined    time.Time
	lastSeen  time.Time
	active    int // leases held
	polling   int // long polls in progress
	completed int64
}

// NewCoordinator starts a coordinator and its lease reaper. store is the
// artifact store shared with workers; a coordinator without one serves
// no workers and reports itself disabled.
func NewCoordinator(store incr.BlobStore, cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		store:   store,
		log:     cfg.Logger,
		byKey:   map[string]*task{},
		leased:  map[string]*task{},
		workers: map[string]*workerInfo{},
		queued:  make(chan struct{}),
		stop:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.reaper()
	return c
}

// Close stops the reaper and fails every queued and in-flight job with
// ErrClosed.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	close(c.queued)
	for _, t := range c.byKey {
		deliverLocked(t, nil, ErrClosed)
	}
	c.pending = nil
	c.byKey = map[string]*task{}
	c.leased = map[string]*task{}
	c.mu.Unlock()
	c.wg.Wait()
}

// deliverLocked settles every subscriber of t. Callers hold c.mu.
func deliverLocked(t *task, art []byte, err error) {
	for _, sub := range t.subs {
		sub.art, sub.err = art, err
		close(sub.done)
	}
	t.subs = nil
}

// Publish queues one clique job and subscribes to it; the caller must
// Release the ticket. A job whose artifact is already stored (an earlier
// job, another node) settles at once, and identical keys published
// concurrently share one job. The coordinator must have a store.
func (c *Coordinator) Publish(spec Spec) (*Ticket, error) {
	if spec.Key == "" {
		return nil, fmt.Errorf("fabric: spec has no key")
	}
	tk := &Ticket{c: c, wake: make(chan struct{}, 1), done: make(chan struct{})}
	tk.wake <- struct{}{} // a fresh subscriber may try to claim at once
	if b, err := c.store.Get(string(incr.GranClique), spec.Key); err == nil {
		tk.art = b
		close(tk.done)
		return tk, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	t, ok := c.byKey[spec.Key]
	if !ok {
		t = &task{spec: spec}
		c.byKey[spec.Key] = t
		c.enqueueLocked(t)
	}
	tk.t = t
	t.subs = append(t.subs, tk)
	return tk, nil
}

// HasWorkers reports whether any remote worker has registered.
func (c *Coordinator) HasWorkers() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers) > 0
}

// CompleteLocal counts one clique a job merged in-process.
func (c *Coordinator) CompleteLocal() {
	c.mu.Lock()
	c.completed++
	c.mu.Unlock()
}

// enqueueLocked puts t at the queue tail and wakes long-polling workers
// and t's subscribers. Callers hold c.mu.
func (c *Coordinator) enqueueLocked(t *task) {
	c.pending = append(c.pending, t)
	close(c.queued)
	c.queued = make(chan struct{})
	for _, sub := range t.subs {
		select {
		case sub.wake <- struct{}{}:
		default: // a token is already waiting
		}
	}
}

// unqueueLocked takes t out of the queue, reporting whether it was
// there. Callers hold c.mu.
func (c *Coordinator) unqueueLocked(t *task) bool {
	i := slices.Index(c.pending, t)
	if i >= 0 {
		c.pending = slices.Delete(c.pending, i, i+1)
	}
	return i >= 0
}

// Join registers (or refreshes) a worker.
func (c *Coordinator) Join(workerID, addr string) error {
	if workerID == "" {
		return fmt.Errorf("fabric: invalid worker id %q", workerID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.store == nil {
		return fmt.Errorf("fabric: coordinator has no artifact store to share")
	}
	c.touchLocked(workerID).addr = addr
	return nil
}

// Claim hands the next pending clique job to workerID, long-polling up
// to wait. It returns (nil, nil) when no work arrived in time, and
// ErrClosed after Close. A poll registers a worker the coordinator does
// not know (dropped while silent, or polling a restarted coordinator),
// and a worker is never dropped while it polls.
func (c *Coordinator) Claim(ctx context.Context, workerID string, wait time.Duration) (*Spec, error) {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	c.mu.Lock()
	w := c.touchLocked(workerID)
	if w != nil {
		w.polling++
	}
	c.mu.Unlock()
	defer func() {
		if w != nil {
			c.mu.Lock()
			w.polling--
			w.lastSeen = time.Now()
			c.mu.Unlock()
		}
	}()
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if len(c.pending) > 0 {
			t := c.pending[0]
			c.pending = c.pending[1:]
			spec := c.leaseLocked(t, workerID)
			c.mu.Unlock()
			return spec, nil
		}
		queued := c.queued
		c.mu.Unlock()
		select {
		case <-queued:
		case <-timer.C:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
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
	c.steals++
	spec := t.spec
	return &spec
}

// touchLocked records that workerID was heard from now and returns its
// registry entry, registering the worker when it is unknown. It returns
// nil when no worker can register: an empty ID, or no store to share.
// Callers hold c.mu.
func (c *Coordinator) touchLocked(workerID string) *workerInfo {
	w, ok := c.workers[workerID]
	if !ok {
		if workerID == "" || c.store == nil {
			return nil
		}
		w = &workerInfo{id: workerID, joined: time.Now()}
		c.workers[workerID] = w
		c.log.Info("fabric worker joined", "worker", workerID)
	}
	w.lastSeen = time.Now()
	return w
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
		requeued := c.requeueLocked(t, fmt.Sprintf("artifact missing after completion by %s", workerID))
		c.mu.Unlock()
		c.log.Warn("fabric completion without artifact", "worker", workerID, "key", key, "error", artErr)
		if requeued != nil {
			c.log.Warn("fabric clique requeued", requeued...)
		}
		return nil
	}
	c.settleLocked(t)
	if execErr != "" {
		// A worker-reported merge error is deterministic (bad input, not
		// worker death): retrying elsewhere would fail identically, so
		// fail the job now.
		deliverLocked(t, nil, fmt.Errorf("fabric: clique %.12s failed on %s: %s", key, workerID, execErr))
		c.failed++
	} else {
		deliverLocked(t, art, nil)
		c.completed++
	}
	c.mu.Unlock()
	return nil
}

// liveLocked reports whether t is still an unsettled job: pending,
// leased or held. Callers hold c.mu.
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
	c.unqueueLocked(t)
	delete(c.byKey, t.spec.Key)
}

// requeueLocked ends t's lost lease and returns t to the queue, failing
// it permanently when attempts are exhausted; a task nobody waits for
// any more is dropped. It returns the attributes to log a requeue with
// once c.mu is released, nil when t did not go back on the queue.
// Callers hold c.mu.
func (c *Coordinator) requeueLocked(t *task, why string) []any {
	c.releaseLocked(t)
	t.lessee = ""
	switch {
	case len(t.subs) == 0:
		delete(c.byKey, t.spec.Key)
	case t.attempts >= c.cfg.MaxAttempts:
		delete(c.byKey, t.spec.Key)
		c.failed++
		deliverLocked(t, nil, fmt.Errorf(
			"fabric: clique %.12s lost after %d attempts (%s)", t.spec.Key, t.attempts, why))
	default:
		c.retries++
		c.enqueueLocked(t)
		return []any{"key", t.spec.Key, "attempts", t.attempts, "why", why}
	}
	return nil
}

// reaper expires leases whose worker went silent, and drops a worker
// that holds no lease, is not polling and has been silent for longer
// than LeaseTTL, so a server whose workers all died stops publishing
// cliques.
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
		var requeued [][]any
		var dropped []string
		c.mu.Lock()
		for _, t := range c.leased {
			if now.After(t.expiry) {
				why := fmt.Sprintf("lease expired (worker %s presumed dead)", t.lessee)
				if attrs := c.requeueLocked(t, why); attrs != nil {
					requeued = append(requeued, attrs)
				}
			}
		}
		for id, w := range c.workers {
			if w.active == 0 && w.polling == 0 && now.Sub(w.lastSeen) > c.cfg.LeaseTTL {
				delete(c.workers, id)
				dropped = append(dropped, id)
			}
		}
		c.mu.Unlock()
		for _, attrs := range requeued {
			c.log.Warn("fabric clique requeued", attrs...)
		}
		for _, id := range dropped {
			c.log.Warn("fabric worker dropped after going silent", "worker", id)
		}
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
// at GET /v2/cluster. Enabled: workers can join (there is a store).
// Completed includes cliques merged in-process by their own jobs.
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
		Enabled:        c.store != nil,
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
