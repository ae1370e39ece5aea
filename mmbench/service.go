package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"modemerge/internal/fabric"
	"modemerge/internal/incr"
	"modemerge/internal/obs"
	"modemerge/internal/service"
)

// pollEvery is how often a client asks whether its job is done.
const pollEvery = 2 * time.Millisecond

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// stack is the service under test: a merge server on a loopback listener,
// optionally with one fabric worker joined to it over HTTP.
type stack struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}

	// The fabric worker, when there is one.
	wire       *wireRecorder
	workers    int // workers started so far; names the next one
	workerConn *closableTransport
	stopWorker context.CancelFunc
	workerDone chan struct{}

	closeOnce sync.Once
}

// startStack starts a server with cfg and, when wire is not nil, one
// fabric worker whose wire calls go through wire.
func startStack(cfg service.Config, wire *wireRecorder) (*stack, error) {
	cfg.Logger = quietLog
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{
		srv:    service.New(cfg),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		served: make(chan struct{}),
		wire:   wire,
	}
	s.hs = &http.Server{Handler: s.srv.Handler(), ErrorLog: log.New(io.Discard, "", 0)}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	if wire != nil {
		if err := s.startWorker(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// startWorker starts a fabric worker and waits until it has joined.
func (s *stack) startWorker() error {
	s.workers++
	id := fmt.Sprintf("bench-worker-%d", s.workers)
	s.workerConn = newClosableTransport()
	w := fabric.NewWorker(s.base, fabric.WorkerConfig{
		ID:          id,
		Parallelism: procs,
		Logger:      quietLog,
		HTTPClient:  &http.Client{Transport: s.wire.wrap(s.workerConn)},
	})
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorker = cancel
	s.workerDone = make(chan struct{})
	go func() {
		defer close(s.workerDone)
		w.Run(ctx) //nolint:errcheck // ends with ctx.Err() once stopped
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st fabric.ClusterStatus
		if err := s.getJSON("/v2/cluster", &st); err != nil {
			return err
		}
		for _, ws := range st.Workers {
			if ws.ID == id {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("fabric worker %s did not join within 30s", id)
}

// stopFabricWorker stops the worker and waits for it to exit. Closing its
// connections ends a long poll at once instead of when it times out.
func (s *stack) stopFabricWorker() {
	s.stopWorker()
	s.workerConn.closeAll()
	<-s.workerDone
}

// restartWorker replaces the worker with a fresh one. A worker's
// executor cache keeps every design's timing contexts (about 0.4 GB per
// design-A job), so a run restarts it between jobs to stay bounded.
func (s *stack) restartWorker() error {
	s.stopFabricWorker()
	return s.startWorker()
}

// close drains the server, stops the worker and waits for both. Calls
// after the first do nothing.
func (s *stack) close() {
	s.closeOnce.Do(func() {
		if s.stopWorker != nil {
			s.stopFabricWorker()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.srv.Shutdown(ctx) //nolint:errcheck // no job is running at this point
		s.hs.Close()
		<-s.served
		s.client.CloseIdleConnections()
	})
}

// closableTransport is an HTTP transport that can close all of its
// connections at once, idle or not.
type closableTransport struct {
	*http.Transport
	mu    sync.Mutex
	conns []net.Conn
}

func newClosableTransport() *closableTransport {
	t := &closableTransport{}
	var d net.Dialer
	t.Transport = &http.Transport{
		MaxIdleConnsPerHost: 4,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err == nil {
				t.mu.Lock()
				t.conns = append(t.conns, c)
				t.mu.Unlock()
			}
			return c, err
		},
	}
	return t
}

func (t *closableTransport) closeAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.conns {
		c.Close()
	}
	t.conns = nil
}

func (s *stack) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func (s *stack) getJSON(path string, into any) error {
	b, err := s.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, into)
}

// mergeRequest encodes a /v2/merge request for a design.
func mergeRequest(d *designText) ([]byte, error) {
	req := service.MergeRequest{Verilog: d.verilog}
	for _, m := range d.modes {
		req.Modes = append(req.Modes, service.ModeInput{Name: m.Name, SDC: m.Text})
	}
	return json.Marshal(req)
}

// mergeResult is the part of a job result the benchmark checks.
type mergeResult struct {
	Merged []struct {
		Name string `json:"name"`
		SDC  string `json:"sdc"`
	} `json:"merged"`
	Groups      [][]string `json:"groups"`
	Equivalence []struct {
		Merged     string `json:"merged"`
		Equivalent bool   `json:"equivalent"`
	} `json:"equivalence"`
}

// check reports what is wrong with a result of a modes-mode request.
func (r *mergeResult) check(modes int) error {
	members, multi := 0, 0
	for _, g := range r.Groups {
		members += len(g)
		if len(g) > 1 {
			multi++
		}
	}
	switch {
	case len(r.Merged) == 0 || len(r.Merged) != len(r.Groups):
		return fmt.Errorf("%d merged modes for %d groups", len(r.Merged), len(r.Groups))
	case members != modes:
		return fmt.Errorf("groups cover %d of %d modes", members, modes)
	case len(r.Equivalence) != multi:
		return fmt.Errorf("%d equivalence reports for %d merged cliques", len(r.Equivalence), multi)
	}
	for _, e := range r.Equivalence {
		if !e.Equivalent {
			return fmt.Errorf("merged mode %s is not equivalent to its members", e.Merged)
		}
	}
	return nil
}

func (r *mergeResult) texts() []string {
	out := make([]string, len(r.Merged))
	for i, m := range r.Merged {
		out[i] = m.SDC
	}
	return out
}

type jobView struct {
	Status   string     `json:"status"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

// jobOut is one client job: submit, wait until done, fetch the result.
type jobOut struct {
	id     string
	cached bool
	body   []byte
	res    mergeResult
	view   jobView // last status seen while waiting (zero for cached jobs)

	start, submitted, waited, end time.Time
}

func (o *jobOut) latency() float64 { return o.end.Sub(o.start).Seconds() }

// job hands body to the service and returns once the merged SDC bytes are
// in hand.
func (s *stack) job(body []byte) (*jobOut, error) {
	o := &jobOut{start: time.Now()}
	resp, err := s.client.Post(s.base+"/v2/merge", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit refused: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var sub struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		return nil, fmt.Errorf("submit response: %w", err)
	}
	o.submitted = time.Now()
	o.id, o.cached = sub.ID, sub.Cached
	for status := sub.Status; status != "done"; status = o.view.Status {
		if status == "failed" || status == "canceled" {
			return nil, fmt.Errorf("job %s %s: %s", o.id, status, o.view.Error)
		}
		time.Sleep(pollEvery)
		if err := s.getJSON("/v2/jobs/"+o.id, &o.view); err != nil {
			return nil, err
		}
	}
	o.waited = time.Now()
	if o.body, err = s.get("/v2/jobs/" + o.id + "/result"); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(o.body, &o.res); err != nil {
		return nil, fmt.Errorf("result of %s: %w", o.id, err)
	}
	o.end = time.Now()
	return o, nil
}

// serviceStats is the part of /v2/stats the per-layer metrics use.
type serviceStats struct {
	CacheHitsResult int64              `json:"cache_hits_result"`
	CacheHitsDesign int64              `json:"cache_hits_design"`
	CacheMisses     int64              `json:"cache_misses"`
	IncrCache       incr.StatsSnapshot `json:"incr_cache"`
}

func (s *stack) stats() (serviceStats, fabric.ClusterStatus, error) {
	var st serviceStats
	var cl fabric.ClusterStatus
	if err := s.getJSON("/v2/stats", &st); err != nil {
		return st, cl, err
	}
	return st, cl, s.getJSON("/v2/cluster", &cl)
}

// fillServiceRatios sets the cache hit ratios of the window between two
// /v2/stats samples.
func (r *report) fillServiceRatios(a, b serviceStats) {
	d := func(x, y int64) int64 { return y - x }
	results := d(a.CacheHitsResult, b.CacheHitsResult)
	executed := d(a.CacheMisses, b.CacheMisses)
	r.setLayer("service.result_cache_hit_ratio", ratio(results, executed))
	designHits := d(a.CacheHitsDesign, b.CacheHitsDesign)
	r.setLayer("service.design_cache_hit_ratio", ratio(designHits, executed-designHits))
	ia, ib := a.IncrCache, b.IncrCache
	r.setLayer("incr.ctx_hit_ratio", ratio(d(ia.ContextHits, ib.ContextHits), d(ia.ContextMisses, ib.ContextMisses)))
	r.setLayer("incr.pair_hit_ratio", ratio(d(ia.PairHits, ib.PairHits), d(ia.PairMisses, ib.PairMisses)))
	r.setLayer("incr.clique_hit_ratio", ratio(d(ia.CliqueHits, ib.CliqueHits), d(ia.CliqueMisses, ib.CliqueMisses)))
	r.setLayer("incr.mctx_hit_ratio", ratio(d(ia.MergedCtxHits, ib.MergedCtxHits), d(ia.MergedCtxMisses, ib.MergedCtxMisses)))
}

// serviceLayers maps per-layer metrics to the span names a service job's
// trace records.
var serviceLayers = map[string]string{
	"sdc.parse_s":          "sdc.parse",
	"core.mergeability_s":  "core.mergeability",
	"core.prelim_s":        "core.prelim",
	"core.clock_refine_s":  "core.clock_refine",
	"core.data_refine_s":   "core.data_refine",
	"core.merge_s":         "core.merge",
	"core.equivalence_s":   "core.equivalence",
	"sta.context_s":        "sta.context",
	"service.submit_s":     "service.submit",
	"service.wait_s":       "service.wait",
	"service.result_s":     "service.result",
	"service.queue_wait_s": "service.queue_wait",
	"service.run_s":        "service.run",
	"fabric.poll_wait_s":   "fabric.poll",
	"fabric.exec_s":        "fabric.exec",
	"fabric.complete_s":    "fabric.complete",
	"fabric.blob_s":        "fabric.blob",
}

// traceJob records a finished job's spans: the client's three calls, the
// server's queue wait and run from the job's status, the server's own
// span report for the run, and the worker's wire calls.
func (s *stack) traceJob(tr *tracer, job int, o *jobOut, wire []wireSpan) error {
	root := tr.add("job", job, 0, o.start, o.end)
	tr.add("service.submit", job, root, o.start, o.submitted)
	tr.add("service.result", job, root, o.waited, o.end)
	if o.cached {
		return nil
	}
	wait := tr.add("service.wait", job, root, o.submitted, o.waited)
	if o.view.Started == nil || o.view.Finished == nil {
		return fmt.Errorf("job %s: done without start and finish times", o.id)
	}
	tr.add("service.queue_wait", job, wait, o.view.Created, *o.view.Started)
	run := tr.add("service.run", job, wait, *o.view.Started, *o.view.Finished)
	var spans struct {
		Trace []*obs.SpanView `json:"trace"`
	}
	if err := s.getJSON("/v2/jobs/"+o.id+"/trace", &spans); err != nil {
		return err
	}
	for _, v := range spans.Trace {
		importServerSpan(tr, job, run, v)
	}
	for _, w := range wire {
		start := w.start
		if start.Before(o.start) {
			start = o.start // a poll waiting before the job was submitted
		}
		tr.add(w.name, job, run, start, w.end)
	}
	return nil
}

// importServerSpan adds the layer spans of a server span tree under
// parent. Spans of no layer fold into their nearest layer ancestor.
func importServerSpan(tr *tracer, job, parent int, v *obs.SpanView) {
	if name := serverLayer(v); name != "" && v.Finished {
		parent = tr.add(name, job, parent, time.Unix(0, v.StartUnixNS), time.Unix(0, v.EndUnixNS))
	}
	for _, c := range v.Children {
		importServerSpan(tr, job, parent, c)
	}
}

// serverLayer names the layer of a server span, or "" for none. Merges
// sent to the fabric are left to the worker's wire spans: their server
// spans only wait, and run concurrently with each other.
func serverLayer(v *obs.SpanView) string {
	switch v.Name {
	case "parse":
		return "sdc.parse"
	case "mergeability":
		return "core.mergeability"
	case "build_contexts":
		return "sta.context"
	case "prelim", "clock_refine", "data_refine":
		return "core." + v.Name
	case "validate":
		return "core.equivalence"
	}
	if strings.HasPrefix(v.Name, "merge:") && v.Attrs["fabric"] == "" {
		return "core.merge"
	}
	return ""
}

// wireRecorder records a fabric worker's HTTP calls for the traced job in
// progress. Work between a poll that delivered a clique and the worker's
// completion report is recorded as fabric.exec.
type wireRecorder struct {
	mu       sync.Mutex
	job      int // traced job in progress, 0 for none
	spans    []wireSpan
	specDone time.Time // when the last clique spec arrived
	cliques  map[int]int
}

type wireSpan struct {
	name       string
	job        int
	start, end time.Time
}

// setJob marks job (0: none) as the traced job in progress.
func (w *wireRecorder) setJob(job int) {
	w.mu.Lock()
	w.job = job
	w.mu.Unlock()
}

// take returns the spans recorded for job, and the number of cliques the
// worker received for it, and forgets everything recorded so far.
func (w *wireRecorder) take(job int) ([]wireSpan, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var mine []wireSpan
	for _, s := range w.spans {
		if s.job == job {
			mine = append(mine, s)
		}
	}
	n := w.cliques[job]
	w.spans, w.cliques = nil, nil
	return mine, n
}

func (w *wireRecorder) record(name string, start, end time.Time, gotSpec bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.job == 0 {
		return
	}
	if name == "fabric.complete" && !w.specDone.IsZero() {
		w.spans = append(w.spans, wireSpan{"fabric.exec", w.job, w.specDone, start})
		w.specDone = time.Time{}
	}
	w.spans = append(w.spans, wireSpan{name, w.job, start, end})
	if gotSpec {
		w.specDone = end
		if w.cliques == nil {
			w.cliques = map[int]int{}
		}
		w.cliques[w.job]++
	}
}

// wrap returns base with every call recorded.
func (w *wireRecorder) wrap(base http.RoundTripper) http.RoundTripper {
	return &wireRT{rec: w, base: base}
}

type wireRT struct {
	rec  *wireRecorder
	base http.RoundTripper
}

func (rt *wireRT) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	name := "fabric.blob"
	switch {
	case strings.HasSuffix(req.URL.Path, "/fabric/v1/poll"):
		name = "fabric.poll"
	case strings.HasSuffix(req.URL.Path, "/fabric/v1/complete"):
		name = "fabric.complete"
	case strings.HasSuffix(req.URL.Path, "/fabric/v1/join"):
		name = "fabric.join"
	}
	gotSpec := name == "fabric.poll" && resp.StatusCode == http.StatusOK
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		rt.rec.record(name, start, time.Now(), gotSpec)
	}}
	return resp, nil
}

// timedBody reports when a response body is closed, which is when the
// caller has read all of it.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
