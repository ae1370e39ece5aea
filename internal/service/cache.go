package service

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"modemerge/internal/graph"
)

// lruCache is a small thread-safe LRU keyed by content hash.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *lruEntry
	entries map[string]*list.Element
}

type lruEntry struct {
	key   string
	value any
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, order: list.New(), entries: map[string]*list.Element{}}
}

func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

func (c *lruCache) put(key string, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry).value = value
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, value: value})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*lruEntry).key)
	}
}

// designEntry carries the build-once state for one design key, so
// concurrent first submissions of the same design parse it exactly once
// (singleflight) while other designs build in parallel. done closes when
// the build finishes; g/err are immutable after that. The built timing
// graph (and the netlist it references) is shared read-only by every
// job that addresses the same (library, top, verilog) content.
type designEntry struct {
	once sync.Once
	done chan struct{}
	g    *graph.Graph
	err  error
}

// designCache content-addresses built timing graphs.
type designCache struct {
	lru *lruCache
}

func newDesignCache(capacity int) *designCache {
	return &designCache{lru: newLRU(capacity)}
}

// get returns the timing graph for the key, building it at most once
// per entry via build. hit reports whether the entry already existed
// (even if its build is still in flight on another goroutine). The build
// runs on its own goroutine so a waiter whose ctx ends leaves promptly
// without aborting the shared entry for everyone else.
func (c *designCache) get(ctx context.Context, key string, build func() (*graph.Graph, error)) (g *graph.Graph, hit bool, err error) {
	c.lru.mu.Lock()
	var entry *designEntry
	if el, ok := c.lru.entries[key]; ok {
		entry = el.Value.(*lruEntry).value.(*designEntry)
		c.lru.order.MoveToFront(el)
		hit = true
	} else {
		entry = &designEntry{done: make(chan struct{})}
		c.lru.entries[key] = c.lru.order.PushFront(&lruEntry{key: key, value: entry})
		for c.lru.order.Len() > c.lru.cap {
			last := c.lru.order.Back()
			c.lru.order.Remove(last)
			delete(c.lru.entries, last.Value.(*lruEntry).key)
		}
	}
	c.lru.mu.Unlock()

	entry.once.Do(func() {
		go func() {
			defer close(entry.done)
			entry.g, entry.err = build()
		}()
	})
	select {
	case <-entry.done:
		if entry.err != nil && (errors.Is(entry.err, context.Canceled) || errors.Is(entry.err, context.DeadlineExceeded)) {
			// Only a build aborted by server shutdown lands here; drop
			// the entry so it cannot serve a stale cancellation error.
			c.evict(key, entry)
		}
		return entry.g, hit, entry.err
	case <-ctx.Done():
		return nil, hit, ctx.Err()
	}
}

// evict removes the cache entry for key if it still is the given one (a
// newer rebuild under the same key is left alone).
func (c *designCache) evict(key string, entry *designEntry) {
	c.lru.mu.Lock()
	defer c.lru.mu.Unlock()
	if el, ok := c.lru.entries[key]; ok && el.Value.(*lruEntry).value.(*designEntry) == entry {
		c.lru.order.Remove(el)
		delete(c.lru.entries, key)
	}
}
