// Package incr is the incremental re-merge engine's content-addressed
// sub-merge cache, and the only content-addressed cache of the process.
// Every input of the merging flow — the netlist, each mode's resolved
// SDC text, the merge options — hashes to a stable digest, and the
// flow's products are cached at granularities keyed by those digests:
//
//   - built timing graphs, one per design (memory only, built once per
//     key under concurrency: see Build),
//   - per-mode sta timing contexts (memory only: a built context is a
//     large pointer-rich structure that is cheap to share and expensive
//     to serialize),
//   - pairwise mergeability verdicts from the mock-merge analysis,
//   - per-clique preliminary-merge + refinement artifacts (the merged
//     SDC text plus the full merge report),
//   - the merge service's finished job results (memory only).
//
// Editing one mode of N therefore re-runs only that mode's context
// build, its N−1 mergeability pairs, and the cliques containing it —
// everything else is a cache hit. Keys are content addresses, so
// invalidation is automatic: a changed input simply hashes to a new key
// and the stale entry ages out of the LRU.
//
// The cache is safe for concurrent use. An optional artifact store (see
// BlobStore: disk, in-memory, or S3-style HTTP backends) persists the
// serializable granularities (pair verdicts and clique artifacts) across
// processes, which is what makes warm CLI reruns (`modemerge
// -cache-dir`) near-instant and lets a distributed merge fabric share
// per-clique artifacts between coordinator and workers.
package incr

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Granularity names one cached sub-merge product class. It prefixes
// every key, so one store serves all granularities without collisions.
type Granularity string

// The cache granularities of the incremental engine.
const (
	// GranContext caches built per-mode sta analysis contexts. Memory
	// only: entries are live Go object graphs shared read-only between
	// merges (see internal/sta on why sharing is safe).
	GranContext Granularity = "ctx"
	// GranPair caches pairwise mergeability verdicts ("" = mergeable,
	// otherwise the first conflict reason).
	GranPair Granularity = "pair"
	// GranClique caches the merged SDC text + report of one merge
	// clique — the whole preliminary-merge + refinement pipeline.
	GranClique Granularity = "clique"
	// GranETM caches hierarchical-merge products: extracted interface
	// timing models keyed by the master graph fingerprint, and per-block
	// refinement harvests keyed by master fingerprint + options +
	// projected member texts. Both serialize, so they ride the disk
	// write-through like cliques.
	GranETM Granularity = "etm"
	// GranMergedCtx caches merged-mode analysis contexts built during
	// refinement, keyed by the merged SDC text at each iteration. Memory
	// only, like GranContext, but counted separately so the per-mode
	// context reuse contract stays observable on its own counters.
	GranMergedCtx Granularity = "mctx"
	// GranDesign caches built timing graphs (*graph.Graph) keyed by the
	// design's parse inputs. Memory only, and written only through Build,
	// so concurrent first uses of one design parse it once.
	GranDesign Granularity = "design"
	// GranResult caches the merge service's finished job results. Memory
	// only. Its hits and misses are not counted here: the service counts
	// them itself, because only it knows whether a hit was served.
	GranResult Granularity = "result"
)

// Hash is the cache's content address: SHA-256 over length-prefixed
// parts, so no concatenation of parts can collide with a different
// split of the same bytes.
func Hash(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stats counts hits and misses per granularity. All fields are atomic;
// read them through Snapshot.
type Stats struct {
	ContextHits, ContextMisses     atomic.Int64
	PairHits, PairMisses           atomic.Int64
	CliqueHits, CliqueMisses       atomic.Int64
	ETMHits, ETMMisses             atomic.Int64
	MergedCtxHits, MergedCtxMisses atomic.Int64
	DesignHits, DesignMisses       atomic.Int64
}

// StatsSnapshot is the JSON-ready view of Stats.
type StatsSnapshot struct {
	ContextHits     int64 `json:"context_hits"`
	ContextMisses   int64 `json:"context_misses"`
	PairHits        int64 `json:"pair_hits"`
	PairMisses      int64 `json:"pair_misses"`
	CliqueHits      int64 `json:"clique_hits"`
	CliqueMisses    int64 `json:"clique_misses"`
	ETMHits         int64 `json:"etm_hits"`
	ETMMisses       int64 `json:"etm_misses"`
	MergedCtxHits   int64 `json:"merged_ctx_hits,omitempty"`
	MergedCtxMisses int64 `json:"merged_ctx_misses,omitempty"`
	DesignHits      int64 `json:"design_hits,omitempty"`
	DesignMisses    int64 `json:"design_misses,omitempty"`
}

func (s *Stats) hit(g Granularity) {
	switch g {
	case GranContext:
		s.ContextHits.Add(1)
	case GranPair:
		s.PairHits.Add(1)
	case GranClique:
		s.CliqueHits.Add(1)
	case GranETM:
		s.ETMHits.Add(1)
	case GranMergedCtx:
		s.MergedCtxHits.Add(1)
	case GranDesign:
		s.DesignHits.Add(1)
	}
}

func (s *Stats) miss(g Granularity) {
	switch g {
	case GranContext:
		s.ContextMisses.Add(1)
	case GranPair:
		s.PairMisses.Add(1)
	case GranClique:
		s.CliqueMisses.Add(1)
	case GranETM:
		s.ETMMisses.Add(1)
	case GranMergedCtx:
		s.MergedCtxMisses.Add(1)
	case GranDesign:
		s.DesignMisses.Add(1)
	}
}

// Snapshot reads the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		ContextHits:     s.ContextHits.Load(),
		ContextMisses:   s.ContextMisses.Load(),
		PairHits:        s.PairHits.Load(),
		PairMisses:      s.PairMisses.Load(),
		CliqueHits:      s.CliqueHits.Load(),
		CliqueMisses:    s.CliqueMisses.Load(),
		ETMHits:         s.ETMHits.Load(),
		ETMMisses:       s.ETMMisses.Load(),
		MergedCtxHits:   s.MergedCtxHits.Load(),
		MergedCtxMisses: s.MergedCtxMisses.Load(),
		DesignHits:      s.DesignHits.Load(),
		DesignMisses:    s.DesignMisses.Load(),
	}
}

// Counts returns one granularity's hit and miss counters.
func (s StatsSnapshot) Counts(g Granularity) (hits, misses int64) {
	switch g {
	case GranContext:
		return s.ContextHits, s.ContextMisses
	case GranPair:
		return s.PairHits, s.PairMisses
	case GranClique:
		return s.CliqueHits, s.CliqueMisses
	case GranETM:
		return s.ETMHits, s.ETMMisses
	case GranMergedCtx:
		return s.MergedCtxHits, s.MergedCtxMisses
	case GranDesign:
		return s.DesignHits, s.DesignMisses
	}
	return 0, 0
}

// Cache is one incremental sub-merge cache: a bounded in-memory LRU over
// all granularities plus an optional BlobStore behind the
// serializable ones. The zero value is not usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	store BlobStore // optional artifact store; nil = memory only
	stats Stats

	// hitObserver, when set, receives the lookup latency of every cache
	// hit with its granularity — the service feeds these into its
	// per-granularity hit-latency histograms. Nil costs nothing: the
	// lookup paths only read the clock when an observer is installed.
	hitObserver atomic.Pointer[func(Granularity, time.Duration)]
}

type entry struct {
	key   string
	value any
}

// New creates a memory-only cache holding at most capacity entries
// across all granularities (minimum 16; default 4096 when capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	if capacity < 16 {
		capacity = 16
	}
	return &Cache{cap: capacity, order: list.New(), entries: map[string]*list.Element{}}
}

// WithDisk layers a filesystem artifact store under the serializable
// granularities (pair verdicts, clique artifacts). It is a thin adapter
// over WithStore with the DiskStore backend.
func (c *Cache) WithDisk(dir string) (*Cache, error) {
	d, err := NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	return c.WithStore(d), nil
}

// WithStore layers an artifact store under the serializable
// granularities: GetBytes falls through to the store on a memory miss
// and promotes hits back into memory; PutBytes writes through. The store
// may be shared with other caches and other processes — entries are
// content-addressed, so cross-process sharing needs no coordination.
func (c *Cache) WithStore(s BlobStore) *Cache {
	c.mu.Lock()
	c.store = s
	c.mu.Unlock()
	return c
}

// Store returns the cache's artifact store (nil when memory only).
func (c *Cache) Store() BlobStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// Stats exposes the hit/miss counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// SetHitObserver installs (or, with nil, removes) the hit-latency
// callback. The observer must be fast and safe for concurrent use — it
// runs inline on every hit of every merge worker.
func (c *Cache) SetHitObserver(fn func(Granularity, time.Duration)) {
	if fn == nil {
		c.hitObserver.Store(nil)
		return
	}
	c.hitObserver.Store(&fn)
}

// observeHit reports one hit's lookup latency. start is zero when the
// lookup path skipped the clock because no observer was installed at
// entry; re-check is deliberate so a racing SetHitObserver never
// produces a garbage duration.
func (c *Cache) observeHit(g Granularity, start time.Time) {
	if start.IsZero() {
		return
	}
	if fn := c.hitObserver.Load(); fn != nil {
		(*fn)(g, time.Since(start))
	}
}

// hitStart returns the clock reading lookups use to time hits, or zero
// when no observer is installed (skipping the syscall).
func (c *Cache) hitStart() time.Time {
	if c.hitObserver.Load() != nil {
		return time.Now()
	}
	return time.Time{}
}

func fullKey(g Granularity, key string) string { return string(g) + "\x00" + key }

// GetObject looks an in-memory object up (memory-only granularities).
// It never consults the disk store.
func (c *Cache) GetObject(g Granularity, key string) (any, bool) {
	start := c.hitStart()
	// The value must be read under the lock: put overwrites entry.value
	// in place when a key is re-stored.
	c.mu.Lock()
	el, ok := c.entries[fullKey(g, key)]
	var v any
	if ok {
		c.order.MoveToFront(el)
		v = el.Value.(*entry).value
	}
	c.mu.Unlock()
	if !ok {
		c.stats.miss(g)
		return nil, false
	}
	c.stats.hit(g)
	c.observeHit(g, start)
	return v, true
}

// PutObject stores an in-memory object (memory-only granularities).
func (c *Cache) PutObject(g Granularity, key string, v any) {
	c.put(fullKey(g, key), v)
}

// GetBytes looks a serialized value up: memory first, then the artifact
// store (when configured), promoting store hits into memory.
func (c *Cache) GetBytes(g Granularity, key string) ([]byte, bool) {
	start := c.hitStart()
	fk := fullKey(g, key)
	c.mu.Lock()
	el, ok := c.entries[fk]
	var v []byte
	if ok {
		c.order.MoveToFront(el)
		v = el.Value.(*entry).value.([]byte)
	}
	store := c.store
	c.mu.Unlock()
	if ok {
		c.stats.hit(g)
		c.observeHit(g, start)
		return v, true
	}
	if store != nil {
		if b, err := store.Get(string(g), key); err == nil {
			c.put(fk, b)
			c.stats.hit(g)
			c.observeHit(g, start)
			return b, true
		}
	}
	c.stats.miss(g)
	return nil, false
}

// PutBytes stores a serialized value, writing through to the artifact
// store when one is configured.
func (c *Cache) PutBytes(g Granularity, key string, b []byte) {
	c.put(fullKey(g, key), b)
	c.mu.Lock()
	store := c.store
	c.mu.Unlock()
	if store != nil {
		store.Put(string(g), key, b) //nolint:errcheck // cache write-through is best effort
	}
}

func (c *Cache) put(fk string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fk]; ok {
		el.Value.(*entry).value = v
		c.order.MoveToFront(el)
		return
	}
	c.insertLocked(fk, v)
}

// insertLocked adds a new entry at the front and evicts beyond capacity.
// c.mu must be held.
func (c *Cache) insertLocked(fk string, v any) {
	c.entries[fk] = c.order.PushFront(&entry{key: fk, value: v})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*entry).key)
	}
}

// building is one Build entry: done closes when the build returns, and
// v and err are immutable after that.
type building struct {
	done chan struct{}
	v    any
	err  error
}

// Build returns the object cached under (g, key), calling build to make
// it when the key is absent. Concurrent callers of one key share one
// build, while other keys build in parallel; hit reports whether the
// entry already existed, even with its build still running. The build
// runs on its own goroutine, so a caller whose ctx ends returns
// ctx.Err() at once and the build goes on for the others. A build that
// failed with context.Canceled or context.DeadlineExceeded is dropped so
// the next caller builds again; any other error stays cached like a
// value. Keys of g must be written only through Build.
func (c *Cache) Build(ctx context.Context, g Granularity, key string, build func() (any, error)) (v any, hit bool, err error) {
	start := c.hitStart()
	fk := fullKey(g, key)
	c.mu.Lock()
	var b *building
	if el, ok := c.entries[fk]; ok {
		c.order.MoveToFront(el)
		b, hit = el.Value.(*entry).value.(*building), true
	} else {
		b = &building{done: make(chan struct{})}
		c.insertLocked(fk, b)
	}
	c.mu.Unlock()
	if hit {
		c.stats.hit(g)
		c.observeHit(g, start)
	} else {
		c.stats.miss(g)
		go func() {
			defer close(b.done)
			b.v, b.err = build()
		}()
	}
	select {
	case <-b.done:
		if errors.Is(b.err, context.Canceled) || errors.Is(b.err, context.DeadlineExceeded) {
			c.drop(fk, b)
		}
		return b.v, hit, b.err
	case <-ctx.Done():
		return nil, hit, ctx.Err()
	}
}

// drop removes the entry under fk if it still holds value v (a newer
// entry under the same key is left alone).
func (c *Cache) drop(fk string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fk]; ok && el.Value.(*entry).value == v {
		c.order.Remove(el)
		delete(c.entries, fk)
	}
}

// Len reports the in-memory entry count across all granularities.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
