package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"modemerge/internal/obs"
)

// submitAndWait pushes the quickstart request through the server and
// returns the finished job.
func submitAndWait(t *testing.T, s *Server) *Job {
	t.Helper()
	job, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if got := job.Status(); got != StatusDone {
		t.Fatalf("job status = %s, want done", got)
	}
	return job
}

// editedRequest is quickRequest after a one-mode ECO edit: the test mode
// gains a false path, so a warm re-merge reuses the func mode's cached
// context and the merged-mode contexts it rebuilds.
func editedRequest() *MergeRequest {
	req := quickRequest()
	req.Modes[1].SDC += "set_false_path -from [get_ports din] -to [get_ports dout]\n"
	return req
}

// parseExposition maps each sample line of a Prometheus text exposition
// ("name{labels} value") to its value.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestV2StatsMetricsParity holds /v2/stats and /metrics to one snapshot:
// every snapshot counter appears in the exposition with an equal value —
// the incremental cache's etm and merged-context counters included.
// TestV2StatsExpvarParity pins the /v2/stats key set.
func TestV2StatsMetricsParity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	submitAndWait(t, s)
	submitAndWait(t, s) // result-cache hit
	before := s.Metrics().Snapshot().IncrCache
	job, err := s.Submit(editedRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	raw := getBody(t, ts.URL+"/v2/stats")
	var stats StatsSnapshot
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.IncrCache.MergedCtxHits <= before.MergedCtxHits || stats.IncrCache.ContextHits <= before.ContextHits {
		t.Errorf("warm one-mode edit re-merge reused no contexts: %+v before, %+v after", before, stats.IncrCache)
	}

	series := parseExposition(t, string(getBody(t, ts.URL+"/metrics")))
	want := map[string]float64{
		`modemerged_jobs_total{state="queued"}`:                      float64(stats.JobsQueued),
		`modemerged_jobs_total{state="done"}`:                        float64(stats.JobsDone),
		`modemerged_jobs_total{state="failed"}`:                      float64(stats.JobsFailed),
		`modemerged_jobs_total{state="canceled"}`:                    float64(stats.JobsCanceled),
		`modemerged_jobs_running`:                                    float64(stats.JobsRunning),
		`modemerged_merge_parallelism`:                               float64(stats.MergeParallelism),
		`modemerged_cache_events_total{cache="result",event="hit"}`:  float64(stats.CacheHitsResult),
		`modemerged_cache_events_total{cache="design",event="hit"}`:  float64(stats.CacheHitsDesign),
		`modemerged_cache_events_total{cache="result",event="miss"}`: float64(stats.CacheMisses),
		`modemerged_queue_wait_seconds_count`:                        float64(stats.QueueWait.Count),
	}
	for _, g := range incrHitGranularities {
		hits, misses := stats.IncrCache.Counts(g)
		want[`modemerged_incr_cache_events_total{granularity="`+incrEventLabel(g)+`",event="hit"}`] = float64(hits)
		want[`modemerged_incr_cache_events_total{granularity="`+incrEventLabel(g)+`",event="miss"}`] = float64(misses)
	}
	for _, st := range stats.Stages {
		want[`modemerged_stage_seconds_count{stage="`+st.Stage+`"}`] = float64(st.Count)
	}
	for name, v := range want {
		got, ok := series[name]
		switch {
		case !ok:
			t.Errorf("exposition has no %s series", name)
		case got != v:
			t.Errorf("%s = %v in /metrics, %v in /v2/stats", name, got, v)
		}
	}
	for _, st := range stats.Stages {
		sum := series[`modemerged_stage_seconds_sum{stage="`+st.Stage+`"}`]
		if math.Abs(sum*1e3-st.TotalMS) > 1e-6*math.Max(1, st.TotalMS) {
			t.Errorf("stage %s: %v s in /metrics, %v ms in /v2/stats", st.Stage, sum, st.TotalMS)
		}
	}
	for _, g := range []string{"etm", "mctx"} {
		if _, ok := series[`modemerged_incr_cache_events_total{granularity="`+g+`",event="hit"}`]; !ok {
			t.Errorf("exposition has no %s incr-cache series", g)
		}
	}

	// The runtime gauges are sampled per snapshot, so they can only be
	// compared within one: render a snapshot and read them back.
	snap := s.Metrics().Snapshot()
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	own := parseExposition(t, buf.String())
	for name, v := range map[string]float64{
		"modemerged_runtime_goroutines":            float64(snap.Runtime.Goroutines),
		"modemerged_runtime_heap_inuse_bytes":      float64(snap.Runtime.HeapInuseBytes),
		"modemerged_runtime_last_gc_pause_seconds": snap.Runtime.LastGCPauseMS / 1e3,
	} {
		if own[name] != v {
			t.Errorf("%s = %v, snapshot has %v", name, own[name], v)
		}
	}
}

// getBody GETs url and returns the body of a 200 response.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestMetricsEndpoint asserts GET /metrics serves Prometheus text with
// the counter and histogram families after a job ran.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	submitAndWait(t, s)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE modemerged_jobs_total counter",
		`modemerged_jobs_total{state="done"} 1`,
		"# TYPE modemerged_jobs_running gauge",
		"# TYPE modemerged_queue_wait_seconds histogram",
		"modemerged_queue_wait_seconds_count 1",
		"# TYPE modemerged_stage_seconds histogram",
		`modemerged_stage_seconds_bucket{stage="prelim",le="+Inf"} 1`,
		`modemerged_stage_seconds_count{stage="parse"} 1`,
		"# TYPE modemerged_runtime_goroutines gauge",
		"# TYPE modemerged_runtime_heap_inuse_bytes gauge",
		"# TYPE modemerged_runtime_last_gc_pause_seconds gauge",
		"# TYPE modemerged_incr_cache_hit_seconds histogram",
		// Every granularity's series exists even at zero observations,
		// so dashboards never see the family appear out of nowhere.
		`modemerged_incr_cache_hit_seconds_count{granularity="ctx"}`,
		`modemerged_incr_cache_hit_seconds_count{granularity="pair"}`,
		`modemerged_incr_cache_hit_seconds_count{granularity="clique"}`,
		`modemerged_incr_cache_hit_seconds_count{granularity="etm"}`,
		`modemerged_incr_cache_hit_seconds_count{granularity="mctx"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

// TestTraceEndpoint asserts GET /v2/jobs/{id}/trace returns the full,
// well-formed span tree of a finished job.
func TestTraceEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	job := submitAndWait(t, s)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v2/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr traceResponse
	decodeBody(t, resp, http.StatusOK, &tr)
	if tr.ID != job.ID || tr.Status != StatusDone {
		t.Fatalf("trace header = %+v", tr)
	}
	if len(tr.Trace) != 1 || tr.Trace[0].Name != "job" {
		t.Fatalf("trace roots = %d, want single job root", len(tr.Trace))
	}
	if err := obs.CheckWellFormed(tr.Trace); err != nil {
		t.Fatalf("trace not well-formed: %v", err)
	}
	names := map[string]bool{}
	var walk func(vs []*obs.SpanView)
	walk = func(vs []*obs.SpanView) {
		for _, v := range vs {
			names[v.Name] = true
			walk(v.Children)
		}
	}
	walk(tr.Trace)
	for _, want := range []string{"parse", "mergeability", "prelim", "clock_refine", "data_refine", "validate"} {
		if !names[want] {
			t.Errorf("trace is missing a %q span (have %v)", want, names)
		}
	}

	// A cache-hit job never executes, so its trace is empty but served.
	hit, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, hit)
	resp, err = http.Get(ts.URL + "/v2/jobs/" + hit.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr2 traceResponse
	decodeBody(t, resp, http.StatusOK, &tr2)
	if len(tr2.Trace) != 0 {
		t.Errorf("cache-hit trace has %d roots, want 0", len(tr2.Trace))
	}
}

// TestJobLogsCarryJobID asserts the structured logs emitted while a job
// runs carry the job id on start and completion.
func TestJobLogsCarryJobID(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &buf}, nil))
	s := newTestServer(t, Config{Workers: 1, Logger: logger})
	job := submitAndWait(t, s)

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{`"msg":"job started"`, `"msg":"job done"`, `"job":"` + job.ID + `"`} {
		if !strings.Contains(out, want) {
			t.Errorf("logs missing %q:\n%s", want, out)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
