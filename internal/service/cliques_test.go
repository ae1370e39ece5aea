package service

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachCliqueOrder: each clique finishes only after the next one
// did, so completion order is the reverse of clique order; every result
// still lands in its own clique's slot.
func TestForEachCliqueOrder(t *testing.T) {
	const n = 16
	finished := make([]chan struct{}, n+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[n])
	out := make([]int, n)
	err := forEachClique(context.Background(), n, n, func(_ context.Context, ci int) error {
		<-finished[ci+1]
		out[ci] = ci * ci
		close(finished[ci])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ci, v := range out {
		if v != ci*ci {
			t.Fatalf("out[%d] = %d, want %d", ci, v, ci*ci)
		}
	}
}

// TestForEachCliqueWidthBound: no more than width calls are in flight.
func TestForEachCliqueWidthBound(t *testing.T) {
	const n, width = 40, 3
	var inFlight, peak, calls atomic.Int64
	err := forEachClique(context.Background(), n, width, func(context.Context, int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		calls.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != n {
		t.Fatalf("%d calls, want %d", calls.Load(), n)
	}
	if p := peak.Load(); p > width {
		t.Fatalf("%d calls in flight, width %d", p, width)
	}
}

// TestForEachCliqueFirstFailureCancels: one failing clique cancels the
// calls in flight, stops new ones, and its error is the result.
func TestForEachCliqueFirstFailureCancels(t *testing.T) {
	const n = 200
	boom := errors.New("boom")
	var started atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- forEachClique(context.Background(), n, 4, func(ctx context.Context, ci int) error {
			started.Add(1)
			if ci == 2 { // within the first width, so it starts while the rest block
				return boom
			}
			<-ctx.Done() // every other clique runs until canceled
			return ctx.Err()
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the failure did not cancel the other cliques")
	}
	if s := started.Load(); s >= n {
		t.Fatalf("all %d cliques started after the failure", s)
	}
}

// goroutineID parses the running goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestForEachCliqueWidthOneOnCaller: the solo path runs every clique, in
// order, on the caller's own goroutine.
func TestForEachCliqueWidthOneOnCaller(t *testing.T) {
	caller := goroutineID()
	var order []int
	err := forEachClique(context.Background(), 5, 1, func(_ context.Context, ci int) error {
		if id := goroutineID(); id != caller {
			t.Errorf("clique %d ran on goroutine %s, caller is %s", ci, id, caller)
		}
		order = append(order, ci)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 || order[0] != 0 || order[4] != 4 {
		t.Fatalf("order = %v", order)
	}
}

// TestForEachCliqueZero: no cliques, no calls, no error.
func TestForEachCliqueZero(t *testing.T) {
	for _, width := range []int{1, 4} {
		err := forEachClique(context.Background(), 0, width, func(context.Context, int) error {
			t.Fatal("fn called with zero cliques")
			return nil
		})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
	}
}

// TestCliquePanicFailsJob: a panic inside one clique merge on a fabric
// server (cliques run on helper goroutines) fails the job with the
// panic's stack, and the server keeps serving.
func TestCliquePanicFailsJob(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1,
		Logger:  quietSlog(),
		Fabric:  FabricConfig{Enabled: true},
	})
	req := threeModeRequest()
	req.testPanic = true
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Status(); st != StatusFailed {
		t.Fatalf("job status = %s, want failed", st)
	}
	if msg := job.View().Error; msg != "internal error: test-injected panic" {
		t.Fatalf("job error = %q", msg)
	}
	job.mu.Lock()
	stack := string(job.panicStack)
	job.mu.Unlock()
	if !strings.Contains(stack, "forEachClique") {
		t.Fatalf("panic stack does not name forEachClique:\n%.500s", stack)
	}
	if got := s.Metrics().JobsFailed.Load(); got != 1 {
		t.Fatalf("jobs_failed = %d, want 1", got)
	}

	next, err := s.Submit(threeModeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, next)
	if st := next.Status(); st != StatusDone {
		t.Fatalf("follow-up job = %s, want done (error %q)", st, next.View().Error)
	}
}

// TestCliqueJobExternalCancel: canceling a job while its clique waits on
// the fabric (no executor will ever claim it) marks the job canceled.
func TestCliqueJobExternalCancel(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1,
		Logger:  quietSlog(),
		Fabric:  FabricConfig{Enabled: true, LocalExecutors: -1},
	})
	job, err := s.Submit(threeModeRequest())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.fabric.Status().Pending == 0 {
		if time.Now().After(deadline) {
			t.Fatal("clique never reached the fabric queue")
		}
		time.Sleep(5 * time.Millisecond)
	}
	job.Cancel()
	waitDone(t, job)
	if st := job.Status(); st != StatusCanceled {
		t.Fatalf("job status = %s, want canceled (error %q)", st, job.View().Error)
	}
}

// TestFabricLocalExecutorSharesIncrCache: a job on a fabric server
// merges its clique in-process through the server's own incremental
// cache, so the clique shows in IncrCache().Stats().
func TestFabricLocalExecutorSharesIncrCache(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1,
		Logger:  quietSlog(),
		Fabric:  FabricConfig{Enabled: true},
	})
	job, err := s.Submit(threeModeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if job.Status() != StatusDone {
		t.Fatalf("job: status %s, error %q", job.Status(), job.View().Error)
	}
	if st := s.fabric.Status(); st.Completed != 1 || st.Steals != 0 {
		t.Fatalf("fabric status = %+v, want one local completion", st)
	}
	st := s.IncrCache().Stats().Snapshot()
	if st.CliqueHits+st.CliqueMisses != 1 {
		t.Fatalf("incr stats = %+v, want the one multi-mode clique counted", st)
	}
}
