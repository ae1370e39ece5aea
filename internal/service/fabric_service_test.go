package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"modemerge/internal/fabric"
	"modemerge/internal/incr"
)

func quietSlog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// slowSDC conflicts with both quickstart modes (FCLK period far beyond
// tolerance), so a three-mode request partitions into a two-mode clique
// plus a singleton — exercising both the fabric dispatch path and the
// local singleton passthrough in one job.
const slowSDC = `
create_clock -name FCLK -period 8 [get_ports clk]
set_case_analysis 0 [get_ports tmode]
set_input_delay 0.4 -clock FCLK [get_ports din]
set_output_delay 0.4 -clock FCLK [get_ports dout]
`

func threeModeRequest() *MergeRequest {
	req := quickRequest()
	req.Modes = append(req.Modes, ModeInput{Name: "slow", SDC: slowSDC})
	return req
}

func resultJSON(t *testing.T, job *Job) []byte {
	t.Helper()
	b, err := json.Marshal(job.Result())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFabricMergeByteIdentical runs the same request through a plain
// single-process server and a fabric-enabled server (its job merging
// one clique at a time in-process) and requires byte-identical results.
func TestFabricMergeByteIdentical(t *testing.T) {
	plain := newTestServer(t, Config{Workers: 1, Logger: quietSlog()})
	job, err := plain.Submit(threeModeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if job.Status() != StatusDone {
		t.Fatalf("plain job: status %s, error %q", job.Status(), job.View().Error)
	}
	want := resultJSON(t, job)

	fab := newTestServer(t, Config{
		Workers: 1,
		Logger:  quietSlog(),
		Fabric:  FabricConfig{Enabled: true},
	})
	fjob, err := fab.Submit(threeModeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, fjob)
	if fjob.Status() != StatusDone {
		t.Fatalf("fabric job: status %s, error %q", fjob.Status(), fjob.View().Error)
	}
	if got := resultJSON(t, fjob); !bytes.Equal(got, want) {
		t.Fatalf("fabric result differs from single-process result:\nfabric: %s\nplain:  %s", got, want)
	}

	st := fab.fabric.Status()
	if !st.Enabled || st.Completed < 1 {
		t.Fatalf("fabric status after merge: %+v", st)
	}

	// The cluster gauges ride on the same scrape as the rest.
	rec := httptest.NewRecorder()
	fab.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, "modemerged_cluster_enabled 1") {
		t.Fatalf("metrics scrape missing cluster gauges:\n%s", body)
	}
}

// TestFabricLocalMergeParsesOnce pins one parse per design on a
// coordinator with no remote worker: the job's parse builds the timing
// graph (the design granularity's one miss), and the job merges its
// two-mode clique in-process on that graph with no second design lookup.
func TestFabricLocalMergeParsesOnce(t *testing.T) {
	fab := newTestServer(t, Config{
		Workers: 1,
		Logger:  quietSlog(),
		Fabric:  FabricConfig{Enabled: true, LocalExecutors: 1},
	})
	job, err := fab.Submit(threeModeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if job.Status() != StatusDone {
		t.Fatalf("fabric job: status %s, error %q", job.Status(), job.View().Error)
	}
	if st := fab.fabric.Status(); st.Completed != 1 || st.Steals != 0 {
		t.Fatalf("cluster status %+v, want one in-process completion", st)
	}
	hits, misses := fab.IncrCache().Stats().Snapshot().Counts(incr.GranDesign)
	if misses != 1 || hits != 0 {
		t.Fatalf("design granularity: %d hits, %d misses; want the job's one build", hits, misses)
	}
	if n := fab.Metrics().Snapshot().CacheHitsDesign; n != 0 {
		t.Fatalf("cache_hits_design = %d on a fresh design, want 0", n)
	}
}

// TestClusterEndpointDisabled pins GET /v2/cluster on a server without a
// fabric: 200, enabled=false, empty collections (not null).
func TestClusterEndpointDisabled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Logger: quietSlog()})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v2/cluster", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v2/cluster: %d", rec.Code)
	}
	var st fabric.ClusterStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Enabled || st.Workers == nil || st.InFlight == nil {
		t.Fatalf("disabled cluster status: %s", rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"workers": []`) {
		t.Fatalf("workers should serialize as [], got %s", rec.Body.String())
	}
}

// TestFabricWorkerDeathByteIdentity is the in-process 3-node harness:
// a pure-dispatcher coordinator (no in-process merges) plus two worker
// nodes over real HTTP. The first worker claims the clique job and dies
// mid-clique (never completes); the lease expires, the job is
// rescheduled onto the second worker, and the finished result must be
// byte-identical to the single-process reference — SDC and report both.
func TestFabricWorkerDeathByteIdentity(t *testing.T) {
	plain := newTestServer(t, Config{Workers: 1, Logger: quietSlog()})
	ref, err := plain.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref)
	want := resultJSON(t, ref)

	s := newTestServer(t, Config{
		Workers: 1,
		Logger:  quietSlog(),
		Fabric: FabricConfig{
			Enabled:        true,
			LocalExecutors: -1, // pure dispatcher: only remote workers merge
			LeaseTTL:       500 * time.Millisecond,
			MaxAttempts:    3,
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Node 2: the doomed worker is a raw wire client so the test controls
	// its lifecycle exactly — it joins, claims the clique job, and then
	// goes silent, the observable behavior of a node dying mid-merge.
	doomed := fabric.NewClient(ts.URL, nil)
	if _, err := doomed.Join("doomed", ""); err != nil {
		t.Fatal(err)
	}

	job, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doomed.Poll("doomed", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if spec == nil || len(spec.Members) != 2 {
		t.Fatalf("doomed worker claimed %+v", spec)
	}
	if st := s.fabric.Status(); len(st.InFlight) != 1 || st.InFlight[0].Worker != "doomed" {
		t.Fatalf("cluster status after claim: %+v", st)
	}

	// Node 3: a real worker joins; after the doomed lease expires the job
	// must be stolen and completed here.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	healthy := fabric.NewWorker(ts.URL, fabric.WorkerConfig{
		ID: "healthy", PollWait: 100 * time.Millisecond, Logger: quietSlog(),
	})
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		healthy.Run(wctx) //nolint:errcheck // exits on wcancel
	}()

	waitDone(t, job)
	if job.Status() != StatusDone {
		t.Fatalf("job after worker death: status %s, error %q", job.Status(), job.View().Error)
	}
	if got := resultJSON(t, job); !bytes.Equal(got, want) {
		t.Fatalf("rescheduled merge differs from reference:\ngot:  %s\nwant: %s", got, want)
	}

	st := s.fabric.Status()
	if st.Retries < 1 {
		t.Fatalf("expected ≥1 retry after worker death, status %+v", st)
	}
	var healthyRow *fabric.WorkerStatus
	for i := range st.Workers {
		if st.Workers[i].ID == "healthy" {
			healthyRow = &st.Workers[i]
		}
	}
	if healthyRow == nil || healthyRow.Completed != 1 {
		t.Fatalf("healthy worker row: %+v (status %+v)", healthyRow, st)
	}

	// The cluster view over HTTP matches the in-process snapshot, and
	// the silent doomed worker leaves it once it has been silent for a
	// lease TTL; the polling healthy worker stays.
	var wire fabric.ClusterStatus
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(ts.URL + "/v2/cluster")
		if err != nil {
			t.Fatal(err)
		}
		wire = fabric.ClusterStatus{}
		err = json.NewDecoder(resp.Body).Decode(&wire)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(wire.Workers) == 1 || time.Now().After(deadline) {
			break
		}
	}
	if !wire.Enabled || wire.Retries < 1 || len(wire.Workers) != 1 || wire.Workers[0].ID != "healthy" {
		t.Fatalf("GET /v2/cluster: %+v, want only the healthy worker", wire)
	}

	wcancel()
	select {
	case <-workerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("healthy worker did not stop")
	}
}

// TestFabricShutdownFailsPendingCliques pins drain behavior: with a
// pure-dispatcher fabric and no workers, a submitted job parks on the
// clique queue; shutting down must fail it promptly (fabric closed)
// rather than hang the drain until the job timeout.
func TestFabricShutdownFailsPendingCliques(t *testing.T) {
	s := New(Config{
		Workers: 1,
		Logger:  quietSlog(),
		Fabric:  FabricConfig{Enabled: true, LocalExecutors: -1},
	})
	job, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the clique job is actually queued on the fabric.
	deadline := time.Now().Add(10 * time.Second)
	for s.fabric.Status().Pending == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	s.Shutdown(ctx) //nolint:errcheck // forced drain is the point
	waitDone(t, job)
	if st := job.Status(); st == StatusDone {
		t.Fatalf("job with no workers finished done: %+v", job.View())
	}
}

func fmtMode(i int) ModeInput {
	return ModeInput{Name: fmt.Sprintf("func%d", i), SDC: funcSDC}
}
