// Package obs is the in-process observability substrate: a lightweight
// span/trace API for instrumenting the merge flow (wall time, heap
// allocation deltas, domain counters per stage), a Prometheus
// text-exposition writer with histogram support, and the provenance model
// behind explain reports. It depends only on the standard library and is
// designed so a nil Tracer or Span disables instrumentation at the call
// site with near-zero cost — production code never branches on "is
// tracing on".
package obs

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// heapAllocs reads the cumulative heap allocation counter. The sample
// slice is allocated per call so concurrent spans never share state; one
// small allocation per span boundary is far below the noise floor of the
// stages being measured.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// Tracer collects the spans of one traced operation (one merge job, one
// CLI run). All methods are safe for concurrent use and safe on a nil
// receiver, in which case every derived Span is nil and all recording is
// a no-op.
type Tracer struct {
	traceID TraceID // identity the whole trace shares; set at construction
	mu      sync.Mutex
	spans   []*Span
	nextID  int64
	origin  time.Time // start of the earliest span; zero until first Start
}

// NewTracer returns an empty tracer with a fresh random trace id.
func NewTracer() *Tracer { return &Tracer{traceID: NewTraceID()} }

// NewTracerWithID returns an empty tracer continuing the given trace —
// the id a /v2 request carried in its traceparent header, so one trace
// id follows a merge from the submitting client through every stage.
// An invalid (zero) id falls back to a fresh random one.
func NewTracerWithID(id TraceID) *Tracer {
	if !id.IsValid() {
		id = NewTraceID()
	}
	return &Tracer{traceID: id}
}

// TraceID returns the trace's 128-bit identity (zero on a nil tracer).
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.traceID
}

// Start opens a root span. Finish it like any other span.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, 0, time.Now())
}

func (t *Tracer) newSpan(name string, parent int64, start time.Time) *Span {
	s := &Span{
		tracer:     t,
		parent:     parent,
		name:       name,
		sid:        NewSpanID(),
		start:      start,
		startAlloc: heapAllocs(),
	}
	t.mu.Lock()
	t.nextID++
	s.id = t.nextID
	if t.origin.IsZero() {
		t.origin = start
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Span is one timed stage. Counters accumulate domain quantities (clocks
// renamed, false paths added, …); attributes carry string-valued
// identity (the merged mode's name, the design). All methods are
// nil-safe.
type Span struct {
	tracer *Tracer
	id     int64
	parent int64
	name   string
	sid    SpanID
	start  time.Time

	startAlloc uint64

	mu       sync.Mutex
	counters map[string]int64
	attrs    map[string]string
	finished bool
	end      time.Time
	endAlloc uint64
}

// SpanID returns the span's 64-bit identity (zero on a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.sid
}

// Child opens a sub-span of s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(name, s.id, time.Now())
}

// ChildSince opens a sub-span of s that began at start: a stage known to
// be one only after it began. Its allocation delta counts from the call.
func (s *Span) ChildSince(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(name, s.id, start)
}

// Add accumulates a domain counter on the span.
func (s *Span) Add(counter string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = map[string]int64{}
	}
	s.counters[counter] += delta
	s.mu.Unlock()
}

// SetAttr records a string-valued attribute on the span. Last write per
// key wins.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Finish closes the span, recording its end time and allocation delta.
// Finishing twice keeps the first end.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	alloc := heapAllocs()
	s.mu.Lock()
	if !s.finished {
		s.finished = true
		s.end = time.Now()
		s.endAlloc = alloc
	}
	s.mu.Unlock()
}

// SpanView is the exported, JSON-friendly form of one span. AllocBytes is
// the process-wide heap allocation delta over the span's lifetime, so
// concurrently running spans each see the sum of all goroutines' work —
// an upper bound, exact only for serial stages.
type SpanView struct {
	ID           int64             `json:"id"`
	SpanID       string            `json:"span_id,omitempty"`
	ParentSpanID string            `json:"parent_span_id,omitempty"`
	Name         string            `json:"name"`
	StartNS      int64             `json:"start_ns"` // relative to the trace origin
	StartUnixNS  int64             `json:"start_unix_ns,omitempty"`
	EndUnixNS    int64             `json:"end_unix_ns,omitempty"`
	DurationNS   int64             `json:"duration_ns"`
	AllocBytes   int64             `json:"alloc_bytes"`
	Finished     bool              `json:"finished"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	Counters     map[string]int64  `json:"counters,omitempty"`
	Children     []*SpanView       `json:"children,omitempty"`
}

// Tree snapshots the span forest: root spans in start order with children
// nested. Spans whose parent is unknown surface as roots so nothing is
// silently dropped. Safe to call while spans are still being recorded;
// unfinished spans report Finished=false with a zero duration.
func (t *Tracer) Tree() []*SpanView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	origin := t.origin
	t.mu.Unlock()

	views := make(map[int64]*SpanView, len(spans))
	for _, s := range spans {
		s.mu.Lock()
		v := &SpanView{
			ID:          s.id,
			SpanID:      s.sid.String(),
			Name:        s.name,
			StartNS:     s.start.Sub(origin).Nanoseconds(),
			StartUnixNS: s.start.UnixNano(),
			Finished:    s.finished,
		}
		if s.finished {
			v.DurationNS = s.end.Sub(s.start).Nanoseconds()
			v.EndUnixNS = s.end.UnixNano()
			v.AllocBytes = int64(s.endAlloc - s.startAlloc)
		}
		if len(s.counters) > 0 {
			v.Counters = make(map[string]int64, len(s.counters))
			for k, c := range s.counters {
				v.Counters[k] = c
			}
		}
		if len(s.attrs) > 0 {
			v.Attrs = make(map[string]string, len(s.attrs))
			for k, a := range s.attrs {
				v.Attrs[k] = a
			}
		}
		s.mu.Unlock()
		views[v.ID] = v
	}
	var roots []*SpanView
	for _, s := range spans {
		v := views[s.id]
		if parent, ok := views[s.parent]; ok && s.parent != s.id {
			v.ParentSpanID = parent.SpanID
			parent.Children = append(parent.Children, v)
		} else {
			roots = append(roots, v)
		}
	}
	order := func(vs []*SpanView) {
		sort.Slice(vs, func(i, j int) bool {
			if vs[i].StartNS != vs[j].StartNS {
				return vs[i].StartNS < vs[j].StartNS
			}
			return vs[i].ID < vs[j].ID
		})
	}
	var rec func(vs []*SpanView)
	rec = func(vs []*SpanView) {
		order(vs)
		for _, v := range vs {
			rec(v.Children)
		}
	}
	rec(roots)
	return roots
}

// StageTotal aggregates all spans sharing one name.
type StageTotal struct {
	Count      int64 `json:"count"`
	TotalNS    int64 `json:"total_ns"`
	AllocBytes int64 `json:"alloc_bytes"`
}

// StageTotals folds the (finished) spans of the trace into per-name
// aggregates — the per-stage breakdown consumed by the benchmark
// artifact.
func (t *Tracer) StageTotals() map[string]StageTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	out := map[string]StageTotal{}
	for _, s := range spans {
		s.mu.Lock()
		if s.finished {
			agg := out[s.name]
			agg.Count++
			agg.TotalNS += s.end.Sub(s.start).Nanoseconds()
			agg.AllocBytes += int64(s.endAlloc - s.startAlloc)
			out[s.name] = agg
		}
		s.mu.Unlock()
	}
	return out
}
