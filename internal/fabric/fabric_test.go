package fabric

import (
	"context"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"modemerge/internal/core"
	"modemerge/internal/graph"
	"modemerge/internal/incr"
	"modemerge/internal/sdc"
)

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

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(discard{}, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

// memExecutor is an executor over a fresh in-memory artifact store.
func memExecutor(parallelism int) *Executor {
	return NewExecutor(incr.New(64).WithStore(incr.NewMemStore()), parallelism)
}

// publishAndWait publishes spec and waits for a worker to settle it.
func publishAndWait(ctx context.Context, c *Coordinator, spec Spec) ([]byte, error) {
	tk, err := c.Publish(spec)
	if err != nil {
		return nil, err
	}
	defer tk.Release()
	select {
	case <-tk.Done():
		return tk.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// buildSpec prepares the quick design's two-mode clique job plus the
// locally-merged reference output to compare distributed results
// against.
func buildSpec(t *testing.T) (Spec, *graph.Graph, string) {
	t.Helper()
	src := graph.Source{Verilog: quickVerilog}
	g, _, err := graph.Load(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	members := []Mode{{Name: "func", SDC: funcSDC}, {Name: "test", SDC: testSDC}}
	group, err := ParseModes(g.Design, members)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{}
	merged, _, err := core.MergeClique(context.Background(), g, group, opt)
	if err != nil {
		t.Fatal(err)
	}
	return NewSpec(src, g, opt, members, group), g, sdc.Write(merged)
}

// TestExecutorMatchesLocalMerge: a spec round-tripped through the
// executor produces an artifact that decodes to byte-identical SDC.
func TestExecutorMatchesLocalMerge(t *testing.T) {
	spec, g, want := buildSpec(t)
	store := incr.NewMemStore()
	exec := NewExecutor(incr.New(64).WithStore(store), 2)
	art, err := exec.Execute(context.Background(), &spec)
	if err != nil {
		t.Fatal(err)
	}
	mode, report, err := core.DecodeCliqueArtifact(art, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := sdc.Write(mode); got != want {
		t.Fatalf("distributed merge diverged:\n got: %q\nwant: %q", got, want)
	}
	if report == nil {
		t.Fatal("artifact carries no report")
	}
	// The artifact is durable in the shared store under the clique key.
	if _, err := store.Stat(string(incr.GranClique), spec.Key); err != nil {
		t.Fatalf("artifact not in store: %v", err)
	}
	// Re-execution replays from the store (idempotent retry).
	art2, err := exec.Execute(context.Background(), &spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(art2) != string(art) {
		t.Fatal("re-execution produced different artifact bytes")
	}
}

// TestExecutorRejectsKeyMismatch: a corrupted spec key fails loudly
// instead of storing under the wrong address.
func TestExecutorRejectsKeyMismatch(t *testing.T) {
	spec, _, _ := buildSpec(t)
	spec.Key = incr.Hash("not", "the", "right", "key")
	exec := memExecutor(1)
	if _, err := exec.Execute(context.Background(), &spec); err == nil ||
		!strings.Contains(err.Error(), "key mismatch") {
		t.Fatalf("Execute = %v, want key mismatch error", err)
	}
}

// TestCoordinatorLocalExec: a publishing job claims its queued clique
// back and merges it in-process (a cluster of one still works). No
// worker can lease the held clique, and the merge counts as completed
// without a steal.
func TestCoordinatorLocalExec(t *testing.T) {
	spec, g, want := buildSpec(t)
	c := NewCoordinator(incr.NewMemStore(), CoordinatorConfig{Logger: quietLogger()})
	defer c.Close()
	if err := c.Join("w1", ""); err != nil {
		t.Fatal(err)
	}
	tk, err := c.Publish(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Release()
	select {
	case <-tk.Claimable():
	default:
		t.Fatal("published clique is not claimable")
	}
	if !tk.Claim() {
		t.Fatal("could not claim the queued clique back")
	}
	if s, err := c.Claim(context.Background(), "w1", 0); err != nil || s != nil {
		t.Fatalf("worker claimed %+v, %v; want nothing while the job holds the clique", s, err)
	}
	group := make([]*sdc.Mode, len(spec.Members))
	for i, m := range spec.Members {
		if group[i], _, err = sdc.Parse(m.Name, m.SDC, g.Design); err != nil {
			t.Fatal(err)
		}
	}
	merged, _, err := core.MergeClique(context.Background(), g, group, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sdc.Write(merged); got != want {
		t.Fatalf("in-process merge diverged:\n got: %q\nwant: %q", got, want)
	}
	c.CompleteLocal()
	tk.Release()
	st := c.Status()
	if st.Completed != 1 || st.Steals != 0 || st.Pending != 0 || len(st.InFlight) != 0 {
		t.Fatalf("status = %+v, want completed=1 steals=0 and an empty queue", st)
	}
}

// TestTicketClaimBack pins claim-back with two subscribers of one key:
// while one holds the clique the other cannot claim it, the holder's
// release requeues it and wakes the other, and a clique a worker leased
// cannot be claimed back. A queued clique nobody waits for leaves the
// queue.
func TestTicketClaimBack(t *testing.T) {
	spec, _, _ := buildSpec(t)
	c := NewCoordinator(incr.NewMemStore(), CoordinatorConfig{Logger: quietLogger()})
	defer c.Close()
	if err := c.Join("w1", ""); err != nil {
		t.Fatal(err)
	}
	a, err := c.Publish(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Publish(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-b.Claimable()
	if !a.Claim() {
		t.Fatal("a could not claim the queued clique")
	}
	if b.Claim() {
		t.Fatal("b claimed the clique a holds")
	}
	a.Release()
	select {
	case <-b.Claimable():
	default:
		t.Fatal("a's release did not wake b")
	}
	if st := c.Status(); st.Pending != 1 {
		t.Fatalf("pending = %d after a's release, want 1", st.Pending)
	}
	s, err := c.Claim(context.Background(), "w1", 0)
	if err != nil || s == nil || s.Key != spec.Key {
		t.Fatalf("worker claimed %+v, %v", s, err)
	}
	if b.Claim() {
		t.Fatal("b claimed a clique the worker leased")
	}
	b.Release()

	other := spec
	other.Key = incr.Hash("another clique")
	tk, err := c.Publish(other)
	if err != nil {
		t.Fatal(err)
	}
	tk.Release()
	if st := c.Status(); st.Pending != 0 || st.Steals != 1 {
		t.Fatalf("status = %+v, want the abandoned clique dropped and one steal", st)
	}
}

// TestTicketsRaceToClaim: subscribers of one clique race each other and
// a worker for it. A subscriber that claims the clique back releases it
// to the others; the rest see the worker's artifact. Every subscriber
// finishes and the queue ends empty.
func TestTicketsRaceToClaim(t *testing.T) {
	spec, _, _ := buildSpec(t)
	exec := memExecutor(1)
	c := NewCoordinator(exec.store, CoordinatorConfig{Logger: quietLogger()})
	defer c.Close()
	if err := c.Join("w1", ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var subs sync.WaitGroup
	for i := 0; i < 8; i++ {
		tk, err := c.Publish(spec)
		if err != nil {
			t.Fatal(err)
		}
		subs.Add(1)
		go func() {
			defer subs.Done()
			defer tk.Release()
			for {
				select {
				case <-tk.Done():
					if _, err := tk.Result(); err != nil {
						t.Errorf("result: %v", err)
					}
					return
				case <-tk.Claimable():
					if tk.Claim() {
						return
					}
				case <-ctx.Done():
					t.Error("subscriber never finished")
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	worker := make(chan struct{})
	go func() {
		defer close(worker)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s, err := c.Claim(ctx, "w1", 5*time.Millisecond)
			if err != nil || s == nil {
				continue
			}
			if _, err := exec.Execute(ctx, s); err != nil {
				t.Errorf("execute: %v", err)
			}
			if err := c.Complete("w1", s.Key, ""); err != nil {
				t.Errorf("complete: %v", err)
			}
		}
	}()
	subs.Wait()
	close(stop)
	<-worker
	if st := c.Status(); st.Pending != 0 || len(st.InFlight) != 0 {
		t.Fatalf("status = %+v, want an empty queue", st)
	}
}

// TestCoordinatorWorkerOverHTTP: a remote worker over the wire API
// executes the job; nobody claims it back.
func TestCoordinatorWorkerOverHTTP(t *testing.T) {
	spec, g, want := buildSpec(t)
	c := NewCoordinator(incr.NewMemStore(), CoordinatorConfig{Logger: quietLogger()})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	w := NewWorker(srv.URL, WorkerConfig{
		ID: "w1", Parallelism: 2, PollWait: 200 * time.Millisecond, Logger: quietLogger(),
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); w.Run(wctx) }() //nolint:errcheck // exits on cancel

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	art, err := publishAndWait(ctx, c, spec)
	if err != nil {
		t.Fatal(err)
	}
	mode, _, err := core.DecodeCliqueArtifact(art, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := sdc.Write(mode); got != want {
		t.Fatalf("remote merge diverged:\n got: %q\nwant: %q", got, want)
	}
	st := c.Status()
	if st.Steals != 1 || st.Completed != 1 {
		t.Fatalf("status = %+v, want steals=1 completed=1", st)
	}
	if len(st.Workers) != 1 || st.Workers[0].ID != "w1" || st.Workers[0].Completed != 1 {
		t.Fatalf("workers = %+v", st.Workers)
	}
	wcancel()
	wg.Wait()
}

// TestLargeSpecOverHTTP pins the wire size envelope: a spec whose
// netlist is several megabytes (real designs, not toy chains) must
// round-trip poll → execute → complete intact. Regression test for the
// client truncating poll responses at a smaller cap than the server's
// maxWireBytes, which silently burned every lease until the clique
// failed permanently.
func TestLargeSpecOverHTTP(t *testing.T) {
	spec, g, want := buildSpec(t)
	// Pad past any megabyte-scale cap; newlines are parser-neutral, so
	// the worker-side graph — and therefore the clique key — is unchanged.
	spec.Verilog = quickVerilog + strings.Repeat("\n", 4<<20)

	c := NewCoordinator(incr.NewMemStore(), CoordinatorConfig{Logger: quietLogger()})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	w := NewWorker(srv.URL, WorkerConfig{
		ID: "w1", PollWait: 200 * time.Millisecond, Logger: quietLogger(),
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); w.Run(wctx) }() //nolint:errcheck // exits on cancel

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	art, err := publishAndWait(ctx, c, spec)
	if err != nil {
		t.Fatal(err)
	}
	mode, _, err := core.DecodeCliqueArtifact(art, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := sdc.Write(mode); got != want {
		t.Fatalf("large-spec merge diverged:\n got: %q\nwant: %q", got, want)
	}
	if st := c.Status(); st.Retries != 0 {
		t.Fatalf("large spec burned %d leases before completing: %+v", st.Retries, st)
	}
	wcancel()
	wg.Wait()
}

// TestWorkerDeathRetry: a worker claims a job and dies (never
// completes); the lease expires, the job requeues, and a healthy node
// finishes it with byte-identical output.
func TestWorkerDeathRetry(t *testing.T) {
	spec, g, want := buildSpec(t)
	exec := memExecutor(2)
	c := NewCoordinator(exec.store, CoordinatorConfig{
		LeaseTTL: 150 * time.Millisecond, MaxAttempts: 3,
		Logger: quietLogger(),
	})
	defer c.Close()

	if err := c.Join("doomed", ""); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		art, err := publishAndWait(ctx, c, spec)
		if err != nil {
			t.Errorf("Exec: %v", err)
			return
		}
		mode, _, err := core.DecodeCliqueArtifact(art, g)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		if got := sdc.Write(mode); got != want {
			t.Errorf("post-death merge diverged:\n got: %q\nwant: %q", got, want)
		}
	}()

	// The doomed worker claims the job... and is never heard from again.
	var claimed *Spec
	for i := 0; i < 100 && claimed == nil; i++ {
		s, err := c.Claim(context.Background(), "doomed", 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		claimed = s
	}
	if claimed == nil || claimed.Key != spec.Key {
		t.Fatalf("doomed worker claimed %+v", claimed)
	}

	// After the lease expires the job is claimable again; a healthy
	// executor picks it up and completes.
	if err := c.Join("healthy", ""); err != nil {
		t.Fatal(err)
	}
	var retried *Spec
	deadline := time.Now().Add(30 * time.Second)
	for retried == nil && time.Now().Before(deadline) {
		s, err := c.Claim(context.Background(), "healthy", 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		retried = s
	}
	if retried == nil {
		t.Fatal("lease never expired back into the queue")
	}
	if _, err := exec.Execute(context.Background(), retried); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("healthy", retried.Key, ""); err != nil {
		t.Fatal(err)
	}
	<-done
	st := c.Status()
	if st.Retries < 1 {
		t.Fatalf("status = %+v, want retries >= 1", st)
	}
}

// TestJobLostAfterMaxAttempts: a job claimed and abandoned repeatedly
// fails permanently with a descriptive error instead of looping forever.
func TestJobLostAfterMaxAttempts(t *testing.T) {
	spec, _, _ := buildSpec(t)
	c := NewCoordinator(incr.NewMemStore(), CoordinatorConfig{
		LeaseTTL: 50 * time.Millisecond, MaxAttempts: 2,
		Logger: quietLogger(),
	})
	defer c.Close()
	if err := c.Join("blackhole", ""); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := publishAndWait(ctx, c, spec)
		errCh <- err
	}()
	// Claim (and abandon) until the coordinator gives up on the job.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Claim(context.Background(), "blackhole", 50*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errCh:
			if err == nil || !strings.Contains(err.Error(), "lost after 2 attempts") {
				t.Fatalf("Exec = %v, want lost-after-attempts error", err)
			}
			return
		default:
		}
	}
	t.Fatal("job never failed permanently")
}

// TestConcurrentExecShareOneRun: identical keys published concurrently
// share one job, which one worker execution settles for every
// subscriber with the same artifact.
func TestConcurrentExecShareOneRun(t *testing.T) {
	spec, _, _ := buildSpec(t)
	exec := memExecutor(0)
	c := NewCoordinator(exec.store, CoordinatorConfig{Logger: quietLogger()})
	defer c.Close()
	if err := c.Join("w1", ""); err != nil {
		t.Fatal(err)
	}
	const n = 4
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	arts := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], errs[i] = publishAndWait(ctx, c, spec)
		}(i)
	}
	claimed, err := c.Claim(ctx, "w1", 30*time.Second)
	if err != nil || claimed == nil {
		t.Fatalf("claim: %+v, %v", claimed, err)
	}
	if _, err := exec.Execute(ctx, claimed); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("w1", claimed.Key, ""); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("exec %d: %v", i, errs[i])
		}
		if string(arts[i]) != string(arts[0]) {
			t.Fatalf("exec %d received different bytes", i)
		}
	}
	if st := c.Status(); st.Completed != 1 || st.Steals != 1 || st.Pending != 0 {
		t.Fatalf("status = %+v, want one shared execution", st)
	}
}

// TestLateCompletionAccepted: worker A's lease expires mid-clique and
// worker B re-claims the job; A then publishes and completes. A's
// artifact checks out in the store, so the job is done with A's bytes —
// it must not burn B's lease too and fail as lost.
func TestLateCompletionAccepted(t *testing.T) {
	spec, g, want := buildSpec(t)
	exec := memExecutor(1)
	c := NewCoordinator(exec.store, CoordinatorConfig{
		LeaseTTL: 50 * time.Millisecond, MaxAttempts: 2,
		Logger: quietLogger(),
	})
	defer c.Close()
	for _, id := range []string{"a", "b"} {
		if err := c.Join(id, ""); err != nil {
			t.Fatal(err)
		}
	}
	type outcome struct {
		art []byte
		err error
	}
	res := make(chan outcome, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		art, err := publishAndWait(ctx, c, spec)
		res <- outcome{art, err}
	}()
	claim := func(id string) *Spec {
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			s, err := c.Claim(context.Background(), id, 20*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if s != nil {
				return s
			}
		}
		t.Fatalf("worker %s never claimed the job", id)
		return nil
	}

	// A claims and publishes the artifact, but its lease runs out first.
	a := claim("a")
	if _, err := exec.Execute(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	// The job is requeued and B claims it (attempt 2 of 2) ...
	b := claim("b")
	if b.Key != spec.Key {
		t.Fatalf("b claimed %s, want %s", b.Key, spec.Key)
	}
	// ... and A's completion arrives late.
	if err := c.Complete("a", a.Key, ""); err != nil {
		t.Fatal(err)
	}
	o := <-res
	if o.err != nil {
		t.Fatalf("Exec = %v, want A's late artifact", o.err)
	}
	mode, _, err := core.DecodeCliqueArtifact(o.art, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := sdc.Write(mode); got != want {
		t.Fatalf("late-completion merge diverged:\n got: %q\nwant: %q", got, want)
	}
	// B's own completion is now a duplicate and changes nothing.
	if err := c.Complete("b", b.Key, ""); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Completed != 1 || st.Failed != 0 || st.Pending != 0 || len(st.InFlight) != 0 {
		t.Fatalf("status = %+v, want one completion and an empty queue", st)
	}
	for _, w := range st.Workers {
		if w.Active != 0 {
			t.Fatalf("worker %s still holds %d leases: %+v", w.ID, w.Active, st.Workers)
		}
	}
}
