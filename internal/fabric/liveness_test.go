package fabric

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"modemerge/internal/incr"
)

// waitFor polls cond until it holds or d passes.
func waitFor(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestWorkerLiveness: the reaper drops a silent worker that holds no
// lease, never drops one inside a long poll, and a poll from a dropped
// worker registers it again.
func TestWorkerLiveness(t *testing.T) {
	const ttl = 80 * time.Millisecond
	c := NewCoordinator(incr.NewMemStore(), CoordinatorConfig{LeaseTTL: ttl, Logger: quietLogger()})
	defer c.Close()

	if err := c.Join("silent", ""); err != nil {
		t.Fatal(err)
	}
	if !c.HasWorkers() {
		t.Fatal("joined worker not registered")
	}
	if !waitFor(20*ttl, func() bool { return !c.HasWorkers() }) {
		t.Fatalf("silent worker still registered after %v: %+v", 20*ttl, c.Status().Workers)
	}

	// A long poll of 5×TTL keeps its worker registered throughout.
	polled := make(chan error, 1)
	go func() {
		_, err := c.Claim(context.Background(), "poller", 5*ttl)
		polled <- err
	}()
	if !waitFor(10*ttl, c.HasWorkers) {
		t.Fatal("a poll from an unknown worker did not register it")
	}
	for done := false; !done; {
		select {
		case err := <-polled:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		case <-time.After(ttl / 8):
			if !c.HasWorkers() {
				t.Fatal("worker dropped inside its long poll")
			}
		}
	}

	// The poll's end counts as contact; silence after it drops the
	// worker, and the next poll re-registers it.
	if !waitFor(20*ttl, func() bool { return !c.HasWorkers() }) {
		t.Fatal("worker still registered long after its poll ended")
	}
	if _, err := c.Claim(context.Background(), "poller", 0); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); len(st.Workers) != 1 || st.Workers[0].ID != "poller" {
		t.Fatalf("workers after re-poll = %+v, want poller registered again", st.Workers)
	}
}

// TestWorkerPermanentRejection: a coordinator refusing the join with 409
// ends Run at once, whatever the message says.
func TestWorkerPermanentRejection(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusConflict, "cluster is read-only")
	}))
	defer stub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	err := NewWorker(stub.URL, WorkerConfig{ID: "w", Logger: quietLogger()}).Run(ctx)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusConflict {
		t.Fatalf("Run = %v, want the 409 as a *StatusError", err)
	}
	// The first retry would back off for a second.
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("Run took %v to give up, want an immediate return", elapsed)
	}
}
