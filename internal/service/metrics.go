package service

import (
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"modemerge/internal/incr"
	"modemerge/internal/obs"
)

// incrHitGranularities fixes the label set of the incremental-cache
// event counters and hit-latency histograms, so every granularity's
// series exists from the first scrape instead of appearing on first hit.
var incrHitGranularities = []incr.Granularity{
	incr.GranContext, incr.GranPair, incr.GranClique, incr.GranETM, incr.GranMergedCtx, incr.GranDesign,
}

// incrHitBuckets are the hit-latency histogram bounds in seconds. Cache
// hits are lock-acquire + map-lookup fast paths, so the resolution sits
// well below a millisecond (with a tail for disk-store promotions).
var incrHitBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 0.1,
}

// Metrics holds one server's counters, per-stage timing histograms and
// latency histograms. Snapshot reads them once; GET /v2/stats and GET
// /metrics both render that one snapshot.
type Metrics struct {
	JobsQueued   atomic.Int64
	JobsRunning  atomic.Int64
	JobsDone     atomic.Int64
	JobsFailed   atomic.Int64
	JobsCanceled atomic.Int64

	CacheHitsResult atomic.Int64
	CacheHitsDesign atomic.Int64
	CacheMisses     atomic.Int64

	// mergeParallelism is the configured intra-merge worker bound,
	// surfaced as a gauge so operators can correlate latency with the
	// parallelism setting.
	mergeParallelism int64

	// incr is the server's incremental sub-merge cache counters.
	incr *incr.Stats

	queueWait *obs.Histogram

	// incrHitHists times incremental-cache hits per granularity. The map
	// is fixed at construction (all granularities, see
	// incrHitGranularities), so concurrent Observe needs no lock.
	incrHitHists map[incr.Granularity]*obs.Histogram

	mu     sync.Mutex
	stages map[string]*stageStat
}

// stageStat is one stage's timings: the histogram carries count and
// total, maxNs the slowest run.
type stageStat struct {
	hist  *obs.Histogram
	maxNs int64
}

func newMetrics(mergeParallelism int, incrStats *incr.Stats) *Metrics {
	m := &Metrics{
		mergeParallelism: int64(mergeParallelism),
		incr:             incrStats,
		queueWait:        obs.NewHistogram(obs.DurationBuckets...),
		incrHitHists:     map[incr.Granularity]*obs.Histogram{},
		stages:           map[string]*stageStat{},
	}
	for _, g := range incrHitGranularities {
		m.incrHitHists[g] = obs.NewHistogram(incrHitBuckets...)
	}
	return m
}

// ObserveQueueWait records how long one job sat in the queue before a
// worker picked it up.
func (m *Metrics) ObserveQueueWait(d time.Duration) {
	m.queueWait.Observe(d.Seconds())
}

// ObserveIncrHit records one incremental-cache hit's lookup latency.
// Wired as the cache's hit observer (incr.Cache.SetHitObserver), so it
// runs inline on the merge workers' hot path — fixed-map lookup plus
// one atomic histogram update, no locks.
func (m *Metrics) ObserveIncrHit(g incr.Granularity, d time.Duration) {
	if h, ok := m.incrHitHists[g]; ok {
		h.Observe(d.Seconds())
	}
}

// ObserveStage records one stage execution time.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stages[stage]
	if s == nil {
		s = &stageStat{hist: obs.NewHistogram(obs.DurationBuckets...)}
		m.stages[stage] = s
	}
	s.hist.Observe(d.Seconds())
	s.maxNs = max(s.maxNs, int64(d))
}

// StageSnapshot is the JSON view of one stage's timing aggregate.
type StageSnapshot struct {
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	AvgMS   float64 `json:"avg_ms"`
	MaxMS   float64 `json:"max_ms"`

	hist obs.HistogramSnapshot
}

// QueueWaitSnapshot summarizes the queue-wait histogram.
type QueueWaitSnapshot struct {
	Count int64   `json:"count"`
	AvgMS float64 `json:"avg_ms"`
}

// RuntimeSnapshot is the Go runtime health section of the stats
// snapshot: sampled at snapshot time, not accumulated.
type RuntimeSnapshot struct {
	Goroutines     int     `json:"goroutines"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
	LastGCPauseMS  float64 `json:"last_gc_pause_ms"`
	NumGC          uint32  `json:"num_gc"`
}

// sampleRuntime reads the runtime health gauges. ReadMemStats is a
// stop-the-world of microseconds — fine at scrape/snapshot frequency,
// never called on the merge path.
func sampleRuntime() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := RuntimeSnapshot{
		Goroutines:     runtime.NumGoroutine(),
		HeapInuseBytes: ms.HeapInuse,
		NumGC:          ms.NumGC,
	}
	if ms.NumGC > 0 {
		out.LastGCPauseMS = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e6
	}
	return out
}

// StatsSnapshot is the single typed view of the service counters, taken
// once per request: GET /v2/stats serves its JSON and GET /metrics
// renders it with WritePrometheus, so the two surfaces cannot drift.
type StatsSnapshot struct {
	JobsQueued   int64 `json:"jobs_queued"`
	JobsRunning  int64 `json:"jobs_running"`
	JobsDone     int64 `json:"jobs_done"`
	JobsFailed   int64 `json:"jobs_failed"`
	JobsCanceled int64 `json:"jobs_canceled"`

	CacheHitsResult int64 `json:"cache_hits_result"`
	CacheHitsDesign int64 `json:"cache_hits_design"`
	CacheMisses     int64 `json:"cache_misses"`

	// IncrCache breaks the incremental sub-merge cache down by
	// granularity (per-mode contexts, pair verdicts, clique artifacts,
	// extracted timing models, merged-mode contexts).
	IncrCache incr.StatsSnapshot `json:"incr_cache"`

	MergeParallelism int64 `json:"merge_parallelism"`

	// Runtime samples Go runtime health at snapshot time.
	Runtime RuntimeSnapshot `json:"runtime"`

	QueueWait QueueWaitSnapshot `json:"queue_wait"`
	Stages    []StageSnapshot   `json:"stages"`

	// The histograms only the Prometheus exposition renders in full.
	queueWait obs.HistogramSnapshot
	incrHits  []obs.HistSeries
}

// Snapshot captures the counters, histograms and stage aggregates.
func (m *Metrics) Snapshot() StatsSnapshot {
	out := StatsSnapshot{
		JobsQueued:       m.JobsQueued.Load(),
		JobsRunning:      m.JobsRunning.Load(),
		JobsDone:         m.JobsDone.Load(),
		JobsFailed:       m.JobsFailed.Load(),
		JobsCanceled:     m.JobsCanceled.Load(),
		CacheHitsResult:  m.CacheHitsResult.Load(),
		CacheHitsDesign:  m.CacheHitsDesign.Load(),
		CacheMisses:      m.CacheMisses.Load(),
		IncrCache:        m.incr.Snapshot(),
		MergeParallelism: m.mergeParallelism,
		Runtime:          sampleRuntime(),
		queueWait:        m.queueWait.Snapshot(),
	}
	out.QueueWait.Count = int64(out.queueWait.Count)
	if out.queueWait.Count > 0 {
		out.QueueWait.AvgMS = out.queueWait.Sum / float64(out.queueWait.Count) * 1e3
	}
	for _, g := range incrHitGranularities {
		out.incrHits = append(out.incrHits, obs.HistSeries{
			Labels: []string{"granularity", string(g)},
			Snap:   m.incrHitHists[g].Snapshot(),
		})
	}
	m.mu.Lock()
	out.Stages = make([]StageSnapshot, 0, len(m.stages))
	for name, s := range m.stages {
		h := s.hist.Snapshot()
		row := StageSnapshot{
			Stage: name, Count: int64(h.Count),
			TotalMS: h.Sum * 1e3, MaxMS: float64(s.maxNs) / 1e6, hist: h,
		}
		if h.Count > 0 {
			row.AvgMS = row.TotalMS / float64(h.Count)
		}
		out.Stages = append(out.Stages, row)
	}
	m.mu.Unlock()
	sort.Slice(out.Stages, func(i, j int) bool { return out.Stages[i].Stage < out.Stages[j].Stage })
	return out
}

// incrEventLabel names a granularity in modemerged_incr_cache_events_total;
// per-mode contexts keep the label the family has always used.
func incrEventLabel(g incr.Granularity) string {
	if g == incr.GranContext {
		return "context"
	}
	return string(g)
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (served at GET /metrics).
func (s StatsSnapshot) WritePrometheus(w io.Writer) error {
	pw := obs.NewPromWriter(w)
	pw.Counter("modemerged_jobs_total", "Jobs by terminal (or queued/running transition) state.",
		obs.Series{Labels: []string{"state", "queued"}, Value: float64(s.JobsQueued)},
		obs.Series{Labels: []string{"state", "done"}, Value: float64(s.JobsDone)},
		obs.Series{Labels: []string{"state", "failed"}, Value: float64(s.JobsFailed)},
		obs.Series{Labels: []string{"state", "canceled"}, Value: float64(s.JobsCanceled)})
	pw.Gauge("modemerged_jobs_running", "Jobs currently executing on the worker pool.",
		obs.Series{Value: float64(s.JobsRunning)})
	pw.Gauge("modemerged_merge_parallelism", "Configured intra-merge worker pool bound.",
		obs.Series{Value: float64(s.MergeParallelism)})
	pw.Counter("modemerged_cache_events_total", "Cache hits and misses by cache.",
		obs.Series{Labels: []string{"cache", "result", "event", "hit"}, Value: float64(s.CacheHitsResult)},
		obs.Series{Labels: []string{"cache", "design", "event", "hit"}, Value: float64(s.CacheHitsDesign)},
		obs.Series{Labels: []string{"cache", "result", "event", "miss"}, Value: float64(s.CacheMisses)})
	incrEvents := make([]obs.Series, 0, 2*len(incrHitGranularities))
	for _, g := range incrHitGranularities {
		hits, misses := s.IncrCache.Counts(g)
		incrEvents = append(incrEvents,
			obs.Series{Labels: []string{"granularity", incrEventLabel(g), "event", "hit"}, Value: float64(hits)},
			obs.Series{Labels: []string{"granularity", incrEventLabel(g), "event", "miss"}, Value: float64(misses)})
	}
	pw.Counter("modemerged_incr_cache_events_total",
		"Incremental sub-merge cache hits and misses by granularity.", incrEvents...)
	pw.Gauge("modemerged_runtime_goroutines", "Goroutines currently live in the process.",
		obs.Series{Value: float64(s.Runtime.Goroutines)})
	pw.Gauge("modemerged_runtime_heap_inuse_bytes", "Heap bytes in in-use spans.",
		obs.Series{Value: float64(s.Runtime.HeapInuseBytes)})
	pw.Gauge("modemerged_runtime_last_gc_pause_seconds", "Duration of the most recent GC stop-the-world pause.",
		obs.Series{Value: s.Runtime.LastGCPauseMS / 1e3})
	pw.Histogram("modemerged_queue_wait_seconds", "Time jobs spend queued before a worker picks them up.",
		obs.HistSeries{Snap: s.queueWait})
	pw.Histogram("modemerged_incr_cache_hit_seconds",
		"Incremental sub-merge cache hit lookup latency by granularity.", s.incrHits...)
	stages := make([]obs.HistSeries, len(s.Stages))
	for i, st := range s.Stages {
		stages[i] = obs.HistSeries{Labels: []string{"stage", st.Stage}, Snap: st.hist}
	}
	pw.Histogram("modemerged_stage_seconds", "Merge pipeline stage latency.", stages...)
	return pw.Err()
}
