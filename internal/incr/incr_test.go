package incr

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHashLengthPrefixed(t *testing.T) {
	// Different part boundaries over the same concatenated bytes must not
	// collide: the length prefix makes ("ab","c") ≠ ("a","bc").
	if Hash("ab", "c") == Hash("a", "bc") {
		t.Fatal("hash collides across part boundaries")
	}
	if Hash("x") != Hash("x") {
		t.Fatal("hash is not deterministic")
	}
	if Hash() == Hash("") {
		t.Fatal("zero parts collides with one empty part")
	}
	if len(Hash("x")) != 64 {
		t.Fatalf("expected 64 hex chars, got %d", len(Hash("x")))
	}
}

func TestCacheObjectRoundTrip(t *testing.T) {
	c := New(16)
	if _, ok := c.GetObject(GranContext, "k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.PutObject(GranContext, "k", 42)
	v, ok := c.GetObject(GranContext, "k")
	if !ok || v.(int) != 42 {
		t.Fatalf("got %v %v, want 42 true", v, ok)
	}
	// Granularities are separate namespaces.
	if _, ok := c.GetObject(GranPair, "k"); ok {
		t.Fatal("key leaked across granularities")
	}
	s := c.Stats().Snapshot()
	if s.ContextHits != 1 || s.ContextMisses != 1 || s.PairMisses != 1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

func TestCacheBytesRoundTrip(t *testing.T) {
	c := New(16)
	c.PutBytes(GranClique, "a", []byte("payload"))
	b, ok := c.GetBytes(GranClique, "a")
	if !ok || string(b) != "payload" {
		t.Fatalf("got %q %v", b, ok)
	}
	s := c.Stats().Snapshot()
	if s.CliqueHits != 1 || s.CliqueMisses != 0 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(16) // minimum capacity
	for i := 0; i < 20; i++ {
		c.PutObject(GranContext, fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 16 {
		t.Fatalf("len = %d, want 16", c.Len())
	}
	if _, ok := c.GetObject(GranContext, "k0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.GetObject(GranContext, "k19"); !ok {
		t.Fatal("newest entry evicted")
	}
	// Touching an entry protects it from the next eviction round.
	c2 := New(16)
	for i := 0; i < 16; i++ {
		c2.PutObject(GranContext, fmt.Sprintf("k%d", i), i)
	}
	c2.GetObject(GranContext, "k0") // promote
	c2.PutObject(GranContext, "new", 1)
	if _, ok := c2.GetObject(GranContext, "k0"); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c2.GetObject(GranContext, "k1"); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := New(16).WithDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Hash("some", "content")
	c.PutBytes(GranClique, key, []byte("artifact"))

	// A fresh cache over the same directory sees the entry (memory miss,
	// disk hit), proving the write-through persisted.
	c2, err := New(16).WithDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := c2.GetBytes(GranClique, key)
	if !ok || string(b) != "artifact" {
		t.Fatalf("disk round-trip: got %q %v", b, ok)
	}
	// The disk hit still counts as a cache hit.
	if s := c2.Stats().Snapshot(); s.CliqueHits != 1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	// Objects never go to disk.
	c.PutObject(GranContext, key, 1)
	c3, err := New(16).WithDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.GetObject(GranContext, key); ok {
		t.Fatal("object leaked to disk store")
	}
}

func TestDiskStoreRejectsHostileKeys(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/b", `a\b`, "."} {
		if err := ds.Put(string(GranClique), key, []byte("x")); err == nil {
			t.Fatalf("Put accepted hostile key %q", key)
		}
		if _, err := ds.Get(string(GranClique), key); err == nil {
			t.Fatalf("Get accepted hostile key %q", key)
		}
	}
	// Nothing outside dir was created.
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape")); err == nil {
		t.Fatal("hostile key escaped the cache directory")
	}
}

func TestDiskStoreIgnoresCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := New(16).WithDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Hash("k")
	c.PutBytes(GranPair, key, []byte("good"))
	// Simulate a removed payload: a fresh cache must treat it as a miss.
	path := filepath.Join(dir, string(GranPair), key[:2], key)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	c2, err := New(16).WithDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.GetBytes(GranPair, key); ok {
		t.Fatal("hit on removed disk entry")
	}
}

func TestCacheConcurrency(t *testing.T) {
	c := New(64)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%32)
				c.PutBytes(GranPair, k, []byte{byte(i)})
				c.GetBytes(GranPair, k)
				c.PutObject(GranContext, k, i)
				c.GetObject(GranContext, k)
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// TestCacheBuildOnce pins Build's guarantees: concurrent callers of one
// key share one build, a waiter whose ctx ends leaves without aborting
// the build, a canceled build is dropped and any other error is kept.
func TestCacheBuildOnce(t *testing.T) {
	c := New(16)
	var builds atomic.Int32
	release := make(chan struct{})
	build := func() (any, error) {
		builds.Add(1)
		<-release
		return "graph", nil
	}

	// A waiter whose ctx is already done returns ctx.Err() while the
	// build it started keeps running.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, hit, err := c.Build(canceled, GranDesign, "d", build); hit || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: hit=%v err=%v, want miss and context.Canceled", hit, err)
	}

	const n = 8
	var wg sync.WaitGroup
	results := make(chan any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Build(context.Background(), GranDesign, "d", build)
			if err != nil || !hit {
				t.Errorf("waiter: hit=%v err=%v", hit, err)
			}
			results <- v
		}()
	}
	close(release)
	wg.Wait()
	close(results)
	for v := range results {
		if v != "graph" {
			t.Fatalf("waiter got %v", v)
		}
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d builds for one key, want 1", got)
	}
	if hits, misses := c.Stats().Snapshot().Counts(GranDesign); hits != n || misses != 1 {
		t.Fatalf("design hits/misses = %d/%d, want %d/1", hits, misses, n)
	}

	// A build that ended in cancellation is not cached.
	if _, _, err := c.Build(context.Background(), GranDesign, "c", func() (any, error) {
		return nil, context.DeadlineExceeded
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	v, hit, err := c.Build(context.Background(), GranDesign, "c", func() (any, error) { return "rebuilt", nil })
	if hit || err != nil || v != "rebuilt" {
		t.Fatalf("after a canceled build: v=%v hit=%v err=%v, want a fresh build", v, hit, err)
	}

	// Any other error is the cached answer for the key.
	parseErr := errors.New("parse error")
	c.Build(context.Background(), GranDesign, "e", func() (any, error) { return nil, parseErr })
	_, hit, err = c.Build(context.Background(), GranDesign, "e", func() (any, error) {
		t.Fatal("a failed build ran twice")
		return nil, nil
	})
	if !hit || err != parseErr {
		t.Fatalf("after a parse error: hit=%v err=%v, want the cached error", hit, err)
	}
}

func TestHitObserver(t *testing.T) {
	c := New(16)
	type obsd struct {
		g Granularity
		d time.Duration
	}
	var got []obsd
	c.SetHitObserver(func(g Granularity, d time.Duration) {
		got = append(got, obsd{g, d})
	})

	c.PutObject(GranContext, "k", 1)
	c.PutBytes(GranPair, "p", []byte("ok"))
	if _, ok := c.GetObject(GranContext, "missing"); ok {
		t.Fatal("unexpected hit")
	}
	c.GetObject(GranContext, "k")
	c.GetBytes(GranPair, "p")

	if len(got) != 2 {
		t.Fatalf("observer saw %d hits, want 2 (misses must not report): %+v", len(got), got)
	}
	if got[0].g != GranContext || got[1].g != GranPair {
		t.Fatalf("granularities = %v, %v", got[0].g, got[1].g)
	}
	for _, o := range got {
		if o.d < 0 {
			t.Fatalf("negative hit latency %v", o.d)
		}
	}

	// Disk-promotion hits report too: evict the memory copy, then hit via disk.
	dir := t.TempDir()
	if _, err := c.WithDisk(dir); err != nil {
		t.Fatal(err)
	}
	c.PutBytes(GranClique, "cliq01", []byte("artifact"))
	for i := 0; i < 16; i++ { // push the memory copy out of the LRU
		c.PutObject(GranContext, fmt.Sprintf("fill%d", i), i)
	}
	if _, ok := c.GetBytes(GranClique, "cliq01"); !ok {
		t.Fatal("disk promotion miss")
	}
	if last := got[len(got)-1]; last.g != GranClique {
		t.Fatalf("disk-promotion hit not observed, last = %+v", last)
	}

	// Removing the observer stops reporting without breaking lookups.
	n := len(got)
	c.SetHitObserver(nil)
	if _, ok := c.GetBytes(GranClique, "cliq01"); !ok {
		t.Fatal("lookup broke after observer removal")
	}
	if len(got) != n {
		t.Fatal("observer fired after removal")
	}
}
