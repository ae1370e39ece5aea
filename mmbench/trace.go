package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job share
// Job; Parent is the id of the span that caused it (0 for a job's root).
// Times are wall-clock unix nanoseconds, so spans taken from the server's
// own reports line up with the client's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs make the same calls without the spans.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// open starts a span and returns its id (0 on a nil tracer).
func (t *tracer) open(name string, job, parent int, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start.UnixNano()})
	return id
}

// close ends span id.
func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.UnixNano()
	t.mu.Unlock()
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, job, parent int, start, end time.Time) int {
	id := t.open(name, job, parent, start)
	t.close(id, end)
	return id
}

// setAllocs attaches a heap allocation count to span id.
func (t *tracer) setAllocs(id int, allocs uint64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Allocs = allocs
	t.mu.Unlock()
}

// call runs fn inside a span named name, passing fn the span's id. On a
// traced run it also counts the heap allocations fn makes; runs that use
// call have no other goroutines allocating at the same time.
func (t *tracer) call(name string, job, parent int, fn func(id int) error) error {
	if t == nil {
		return fn(0)
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	id := t.open(name, job, parent, time.Now())
	err := fn(id)
	t.close(id, time.Now())
	metrics.Read(sample)
	t.setAllocs(id, sample[0].Value.Uint64()-before)
	return err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines to dir/spans-<workload>-seed<n>.jsonl.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// layerTimes is the per-job analysis of a trace.
type layerTimes struct {
	// self[name] holds, for each job in which a span of that name appears,
	// the summed self time of those spans in seconds.
	self map[string][]float64
	// allocs[name] holds the per-job summed allocation counts.
	allocs map[string][]float64
	// accounted holds, per job, the share of the root span covered by
	// child spans, in percent.
	accounted []float64
}

// analyze derives per-layer self times: a span's self time is its
// duration minus the part of it that its children cover.
func analyze(spans []span) layerTimes {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type jobName struct {
		job  int
		name string
	}
	self := map[jobName]float64{}
	allocs := map[jobName]float64{}
	var order []jobName
	lt := layerTimes{self: map[string][]float64{}, allocs: map[string][]float64{}}
	for _, s := range spans {
		if s.End < s.Start {
			continue // left open by an aborted job
		}
		covered := coveredNS(s, children[s.ID])
		k := jobName{s.Job, s.Name}
		if _, seen := self[k]; !seen {
			order = append(order, k)
		}
		self[k] += float64(s.End-s.Start-covered) / 1e9
		allocs[k] += float64(s.Allocs)
		if s.Parent == 0 && s.End > s.Start {
			lt.accounted = append(lt.accounted, 100*float64(covered)/float64(s.End-s.Start))
		}
	}
	for _, k := range order {
		lt.self[k.name] = append(lt.self[k.name], self[k])
		lt.allocs[k.name] = append(lt.allocs[k.name], allocs[k])
	}
	return lt
}

// coveredNS returns how much of parent's interval the union of the
// children's intervals covers.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}
