package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"modemerge/internal/incr"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/sdc"
)

// quickVerilog is the quickstart design: two registers clocked through a
// mux selecting a functional or a test clock.
const quickVerilog = `
module quick (clk, tclk, tmode, din, dout);
  input clk, tclk, tmode, din;
  output dout;
  wire gck, q1, n1;
  MUX2 ckmux (.I0(clk), .I1(tclk), .S(tmode), .Z(gck));
  DFF r1 (.CP(gck), .D(din), .Q(q1));
  INV u1 (.A(q1), .Z(n1));
  DFF r2 (.CP(gck), .D(n1), .Q(dout));
endmodule
`

const funcSDC = `
create_clock -name FCLK -period 2 [get_ports clk]
set_case_analysis 0 [get_ports tmode]
set_input_delay 0.4 -clock FCLK [get_ports din]
set_output_delay 0.4 -clock FCLK [get_ports dout]
`

const testSDC = `
create_clock -name TCLK -period 10 [get_ports tclk]
set_case_analysis 1 [get_ports tmode]
set_input_delay 1.0 -clock TCLK [get_ports din]
set_output_delay 1.0 -clock TCLK [get_ports dout]
set_multicycle_path 2 -setup -from [get_clocks TCLK]
`

func quickRequest() *MergeRequest {
	return &MergeRequest{
		Verilog: quickVerilog,
		Modes: []ModeInput{
			{Name: "func", SDC: funcSDC},
			{Name: "test", SDC: testSDC},
		},
	}
}

// bigVerilog builds a long register chain so a merge job reliably takes
// longer than a millisecond-scale deadline.
func bigVerilog(stages int) string {
	var b strings.Builder
	b.WriteString("module big (clk, tclk, tmode, din, dout);\n")
	b.WriteString("  input clk, tclk, tmode, din;\n  output dout;\n  wire gck;\n")
	b.WriteString("  MUX2 ckmux (.I0(clk), .I1(tclk), .S(tmode), .Z(gck));\n")
	prev := "din"
	for i := 0; i < stages; i++ {
		fmt.Fprintf(&b, "  wire q%d, n%d;\n", i, i)
		fmt.Fprintf(&b, "  DFF r%d (.CP(gck), .D(%s), .Q(q%d));\n", i, prev, i)
		fmt.Fprintf(&b, "  INV u%d (.A(q%d), .Z(n%d));\n", i, i, i)
		prev = fmt.Sprintf("n%d", i)
	}
	fmt.Fprintf(&b, "  BUF ob (.A(%s), .Z(dout));\nendmodule\n", prev)
	return b.String()
}

func waitDone(t *testing.T, job *Job) {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish (status %s)", job.ID, job.Status())
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// TestEndToEndHTTP drives the whole API over HTTP: submit the quickstart
// design, poll the job to completion, fetch the result, parse the merged
// SDC, and confirm both the equivalence verdict and the result cache.
func TestEndToEndHTTP(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(quickRequest())
	resp, err := http.Post(ts.URL+"/v2/merge", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponseV2
	decodeBody(t, resp, http.StatusAccepted, &sub)
	if sub.ID == "" || sub.Cached {
		t.Fatalf("submit = %+v, want fresh job with id", sub)
	}

	// Poll until the job reaches a terminal state.
	var view JobView
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v2/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, http.StatusOK, &view)
		if view.Status == StatusDone || view.Status == StatusFailed || view.Status == StatusCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", view.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.Status != StatusDone {
		t.Fatalf("job = %+v, want done", view)
	}
	if len(view.StagesMS) == 0 {
		t.Errorf("job view has no stage timings: %+v", view)
	}
	for _, stage := range []string{"parse", "mergeability", "prelim", "validate"} {
		if _, ok := view.StagesMS[stage]; !ok {
			t.Errorf("stage %q missing from timings %v", stage, view.StagesMS)
		}
	}

	resp, err = http.Get(ts.URL + "/v2/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var result Result
	decodeBody(t, resp, http.StatusOK, &result)
	if len(result.Merged) != 1 {
		t.Fatalf("merged = %d modes, want 1 (groups %v)", len(result.Merged), result.Groups)
	}

	// The merged SDC must parse cleanly against the design.
	design, err := netlist.ParseVerilog(quickVerilog, library.Default(), "")
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := sdc.Parse(result.Merged[0].Name, result.Merged[0].SDC, design)
	if err != nil {
		t.Fatalf("merged SDC does not parse: %v\n%s", err, result.Merged[0].SDC)
	}
	if len(merged.Clocks) < 2 {
		t.Errorf("merged mode has %d clocks, want both FCLK and TCLK", len(merged.Clocks))
	}
	if len(result.Equivalence) != 1 || !result.Equivalence[0].Equivalent {
		t.Fatalf("equivalence = %+v, want one equivalent report", result.Equivalence)
	}

	// Resubmitting the identical request must come straight from cache.
	resp, err = http.Post(ts.URL+"/v2/merge", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub2 submitResponseV2
	decodeBody(t, resp, http.StatusAccepted, &sub2)
	if !sub2.Cached || sub2.Status != StatusDone || sub2.Digest != sub.Digest {
		t.Fatalf("resubmit = %+v, want cached done with digest %s", sub2, sub.Digest)
	}

	resp, err = http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	decodeBody(t, resp, http.StatusOK, &stats)
	if hits, _ := stats["cache_hits_result"].(float64); hits < 1 {
		t.Errorf("cache_hits_result = %v, want >= 1 (stats %v)", stats["cache_hits_result"], stats)
	}
	if done, _ := stats["jobs_done"].(float64); done < 2 {
		t.Errorf("jobs_done = %v, want >= 2", stats["jobs_done"])
	}

	// The liveness probe responds.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz = %d, want 200", resp.StatusCode)
	}
}

// TestConcurrentSubmissions exercises the worker pool and both cache
// layers: many clients submit a mix of identical and distinct requests
// at once.
func TestConcurrentSubmissions(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	const clients = 12
	jobs := make([]*Job, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := quickRequest()
			// Same design throughout; every third request varies the
			// tolerance so it is a distinct result key on the shared
			// parsed design.
			if i%3 == 0 {
				req.Options.Tolerance = 0.01 + float64(i)/1000
			}
			job, err := s.Submit(req)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = job
		}(i)
	}
	wg.Wait()

	for i, job := range jobs {
		if job == nil {
			continue
		}
		waitDone(t, job)
		if st := job.Status(); st != StatusDone {
			t.Errorf("job %d = %s, want done", i, st)
		}
		if job.Result() == nil {
			t.Errorf("job %d has no result", i)
		}
	}

	m := s.Metrics()
	if got := m.JobsDone.Load(); got != clients {
		t.Errorf("jobs_done = %d, want %d", got, clients)
	}
	// All requests share one design: every submission after the first
	// entry exists hits the design cache or the result cache.
	if m.CacheHitsDesign.Load() == 0 && m.CacheHitsResult.Load() == 0 {
		t.Errorf("no cache hits at all across %d identical-design jobs", clients)
	}
}

// TestCancellationNoLeak submits a large job with a 1ms deadline and
// verifies it reports canceled without leaking goroutines.
func TestCancellationNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Workers: 2})
	req := quickRequest()
	req.Verilog = bigVerilog(1500)
	req.Modes[0].Name = "func"
	req.TimeoutMS = 1
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Status(); st != StatusCanceled {
		t.Fatalf("job status = %s, want canceled (a 1500-stage merge finished in 1ms?)", st)
	}
	if s.Metrics().JobsCanceled.Load() != 1 {
		t.Errorf("jobs_canceled = %d, want 1", s.Metrics().JobsCanceled.Load())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Goroutine count must settle back to the baseline: the canceled
	// job's STA workers and the pool itself all exit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestStoppedServerIsFreed: once a server has shut down and its last
// reference is dropped, nothing in the process may keep its incremental
// cache (and the timing contexts in it) alive. The finalizer sits on an
// entry rather than on the *incr.Cache itself, whose cycle with the hit
// observer would keep its own finalizer from ever running.
func TestStoppedServerIsFreed(t *testing.T) {
	freed := make(chan struct{})
	func() {
		s := New(Config{Workers: 1})
		job, err := s.Submit(quickRequest())
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		sentinel := new([64]byte)
		runtime.SetFinalizer(sentinel, func(*[64]byte) { close(freed) })
		s.IncrCache().PutObject(incr.GranContext, "sentinel", sentinel)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("a stopped server's incremental cache is still reachable")
}

// TestExplicitCancelWhileQueued cancels a job stuck behind a busy worker.
func TestExplicitCancelWhileQueued(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	// Occupy the single worker with a long job.
	blocker := quickRequest()
	blocker.Verilog = bigVerilog(800)
	bjob, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}

	victim, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	waitDone(t, victim)
	if st := victim.Status(); st != StatusCanceled {
		t.Fatalf("victim = %s, want canceled", st)
	}

	bjob.Cancel()
	waitDone(t, bjob)
}

// TestSubmitValidation rejects malformed requests before queuing.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cases := []*MergeRequest{
		{},
		{Verilog: quickVerilog},
		{Verilog: quickVerilog, Modes: []ModeInput{{Name: "", SDC: funcSDC}}},
		{Verilog: quickVerilog, Modes: []ModeInput{{Name: "a", SDC: ""}}},
		{Verilog: quickVerilog, Modes: []ModeInput{{Name: "a", SDC: funcSDC}, {Name: "a", SDC: testSDC}}},
	}
	for i, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
}

// TestQueueFull sheds load once the queue is at capacity.
func TestQueueFull(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	blocker := quickRequest()
	blocker.Verilog = bigVerilog(5000)
	bjob, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker actually picked the blocker up, then fill
	// the queue; one more distinct submission must be rejected.
	for deadline := time.Now().Add(10 * time.Second); bjob.Status() == StatusQueued; {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	second := quickRequest()
	second.Options.Tolerance = 0.011
	if _, err := s.Submit(second); err != nil {
		t.Fatalf("queued submission rejected early: %v", err)
	}
	overflow := quickRequest()
	overflow.Options.Tolerance = 0.012
	if _, err := s.Submit(overflow); err == nil {
		t.Fatal("overflow submission accepted, want ErrQueueFull")
	}

	bjob.Cancel()
}

// TestResultKeyOrderMatters keeps mode order part of the result address.
func TestResultKeyOrderMatters(t *testing.T) {
	a := quickRequest()
	b := quickRequest()
	b.Modes[0], b.Modes[1] = b.Modes[1], b.Modes[0]
	if a.resultKey() == b.resultKey() {
		t.Error("reordered modes share a result key")
	}
	if a.resultKey() != quickRequest().resultKey() {
		t.Error("identical requests have different result keys")
	}
	if a.source().Key() != b.source().Key() {
		t.Error("same design must share a design key regardless of modes")
	}
}

// TestContentHashLengthPrefix guards the request keys against
// concatenation collisions: moving bytes across a field boundary (mode
// name into SDC text) must change the result key.
func TestContentHashLengthPrefix(t *testing.T) {
	a := quickRequest()
	b := quickRequest()
	a.Modes[0].Name, a.Modes[0].SDC = "ab", "c"
	b.Modes[0].Name, b.Modes[0].SDC = "a", "bc"
	if a.resultKey() == b.resultKey() {
		t.Error("result keys collide across field boundaries")
	}
}

// TestResultKeyPinned pins the submit digest of the quickstart request:
// result caches, idempotency keys and clients that stored digests all
// depend on the content address never changing.
func TestResultKeyPinned(t *testing.T) {
	const (
		wantResult = "d2a84009b6403e789f749fb30f7a5a63397b70b615cac70260fa380f0fd1bf7a"
		wantDesign = "c2ee3fd5c33f39af6e15336bfa43e83bc4d8e859ae5961024f754ec06aa10637"
	)
	req := quickRequest()
	if got := req.resultKey(); got != wantResult {
		t.Errorf("quickRequest result key = %s, want %s", got, wantResult)
	}
	if got := req.source().Key(); got != wantDesign {
		t.Errorf("quickRequest design key = %s, want %s", got, wantDesign)
	}
}

// TestSubmitShutdownRace hammers Submit concurrently with Shutdown: no
// submission may panic (send on closed queue) and every accepted job must
// still reach a terminal state.
func TestSubmitShutdownRace(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		s := New(Config{Workers: 2, QueueDepth: 4})
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			accepted []*Job
		)
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < 8; k++ {
					job, err := s.Submit(quickRequest())
					if err != nil {
						// ErrDraining / ErrQueueFull are the expected
						// rejections under contention.
						continue
					}
					mu.Lock()
					accepted = append(accepted, job)
					mu.Unlock()
				}
			}()
		}
		close(start)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("iter %d: shutdown: %v", iter, err)
		}
		cancel()
		wg.Wait()
		for _, job := range accepted {
			waitDone(t, job)
		}
	}
}

// TestJobHistoryBounded keeps the job table from growing without bound:
// terminal jobs beyond JobHistoryLimit are evicted, oldest first.
func TestJobHistoryBounded(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, JobHistoryLimit: 4})

	first, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)
	// Every further identical submission is a result-cache hit and
	// finishes instantly — but must still be pruned from the job table.
	for i := 0; i < 20; i++ {
		job, err := s.Submit(quickRequest())
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
	}
	if n := s.QueueStatus().Jobs; n > 4 {
		t.Errorf("job table holds %d entries, want <= JobHistoryLimit 4", n)
	}
	if _, ok := s.Job(first.ID); ok {
		t.Errorf("oldest finished job %s still retained past the history limit", first.ID)
	}
}

// TestWorkerPanicRecovery confirms a panicking job is marked failed and
// does not take the worker (or the process) down.
func TestWorkerPanicRecovery(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	// A job with no request panics inside runJob (nil dereference); the
	// recover path must fail the job instead of crashing.
	ctx, cancel := context.WithCancel(context.Background())
	bad := newJob("jpanic", ctx, cancel)
	s.runJob(bad)
	if st := bad.Status(); st != StatusFailed {
		t.Fatalf("panicked job = %s, want failed", st)
	}
	if got := s.Metrics().JobsFailed.Load(); got != 1 {
		t.Errorf("jobs_failed = %d, want 1", got)
	}

	// The pool still serves real work afterwards.
	job, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Status(); st != StatusDone {
		t.Fatalf("follow-up job = %s, want done", st)
	}
}

func decodeBody(t *testing.T, resp *http.Response, wantStatus int, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("status = %d, want %d: %s", resp.StatusCode, wantStatus, buf.String())
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
