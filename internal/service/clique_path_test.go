package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"modemerge/internal/experiments"
	"modemerge/internal/fabric"
	"modemerge/internal/gen"
	"modemerge/internal/netlist"
	"modemerge/internal/obs"
)

// generatedRequest is a merge request for a generated design and mode
// family, with the SDC texts exactly as the generator writes them.
func generatedRequest(t *testing.T, spec gen.DesignSpec, family gen.FamilySpec) *MergeRequest {
	t.Helper()
	g, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	req := &MergeRequest{Verilog: netlist.WriteVerilog(g.Design)}
	for _, m := range g.Modes(family) {
		req.Modes = append(req.Modes, ModeInput{Name: m.Name, SDC: m.Text})
	}
	return req
}

// paperRequest is the request for the Table 5 design case label with
// generator seed 1.
func paperRequest(t *testing.T, label string) *MergeRequest {
	t.Helper()
	for _, c := range experiments.PaperDesigns(1) {
		if c.Label == label {
			c.Spec.Seed = 1
			return generatedRequest(t, c.Spec, c.Family)
		}
	}
	t.Fatalf("no paper design %q", label)
	return nil
}

// gendesignRequest is the request `gendesign -seed 1 -domains 3 -groups 2
// -modes 3,2` writes.
func gendesignRequest(t *testing.T) *MergeRequest {
	return generatedRequest(t,
		gen.DesignSpec{Name: "synth", Seed: 1, Domains: 3, BlocksPerDomain: 2,
			Stages: 3, RegsPerStage: 6, CloudDepth: 3, CrossPaths: 2},
		gen.FamilySpec{Groups: 2, ModesPerGroup: []int{3, 2}, BasePeriod: 2})
}

// serveHTTP serves s on a loopback listener for the rest of the test.
func serveHTTP(t *testing.T, s *Server) string {
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// joinWorker runs one in-process remote merge worker against the
// coordinator at url for the rest of the test, returning once it has
// registered.
func joinWorker(t *testing.T, s *Server, url string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := fabric.NewWorker(url, fabric.WorkerConfig{
		ID: "remote", PollWait: 100 * time.Millisecond, Logger: quietSlog(),
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck // exits on cancel
	}()
	t.Cleanup(func() { cancel(); <-done })
	deadline := time.Now().Add(30 * time.Second)
	for !s.fabric.HasWorkers() {
		if time.Now().After(deadline) {
			t.Fatal("worker did not join")
		}
		time.Sleep(time.Millisecond)
	}
}

// mergeOverHTTP submits req to /v2/merge at url, waits for the job and
// returns its id and the /v2/jobs/{id}/result body bytes.
func mergeOverHTTP(t *testing.T, url string, req *MergeRequest) (string, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v2/merge", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponseV2
	decodeBody(t, resp, http.StatusAccepted, &sub)
	deadline := time.Now().Add(10 * time.Minute)
	for {
		resp, err := http.Get(url + "/v2/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		decodeBody(t, resp, http.StatusOK, &view)
		if view.Status == StatusDone {
			break
		}
		if view.Status == StatusFailed || view.Status == StatusCanceled || time.Now().After(deadline) {
			t.Fatalf("job %s: %+v", sub.ID, view)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err = http.Get(url + "/v2/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %v\n%s", resp.StatusCode, err, b)
	}
	return sub.ID, b
}

// TestFabricMemberTextByteIdentity: a clique sent to a worker carries
// each member's SDC as the user sent it, so the worker's report warnings
// quote the user's line numbers, as a solo merge does. Each input's
// /v2/merge result body from a pure dispatcher with one remote worker is
// byte-identical to a solo server's.
func TestFabricMemberTextByteIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  func(*testing.T) *MergeRequest
	}{
		{"gendesign-seed1", gendesignRequest},
		{"paper-A", func(t *testing.T) *MergeRequest { return paperRequest(t, "A") }},
		{"paper-E", func(t *testing.T) *MergeRequest { return paperRequest(t, "E") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req(t)
			solo := newTestServer(t, Config{Workers: 1, IncrCacheSize: 16, Logger: quietSlog()})
			_, want := mergeOverHTTP(t, serveHTTP(t, solo), req)

			dispatcher := newTestServer(t, Config{
				Workers: 1, IncrCacheSize: 16, Logger: quietSlog(),
				Fabric: FabricConfig{Enabled: true, LocalExecutors: -1},
			})
			url := serveHTTP(t, dispatcher)
			joinWorker(t, dispatcher, url)
			_, got := mergeOverHTTP(t, url, req)
			if !bytes.Equal(got, want) {
				t.Fatalf("fabric result differs from solo:\nfabric: %s\nsolo:   %s", got, want)
			}
			if st := dispatcher.fabric.Status(); st.Steals == 0 || st.Retries != 0 {
				t.Fatalf("cluster status %+v: want every clique stolen, no retries", st)
			}
		})
	}
}

// spanShape renders a span forest as nested names, with the fabric
// attribute where set: the trace's structure without its timings.
func spanShape(views []*obs.SpanView) string {
	var b strings.Builder
	var walk func(v *obs.SpanView)
	walk = func(v *obs.SpanView) {
		b.WriteString(v.Name)
		if f := v.Attrs["fabric"]; f != "" {
			b.WriteString("[fabric=" + f + "]")
		}
		b.WriteString("(")
		for _, c := range v.Children {
			walk(c)
		}
		b.WriteString(")")
	}
	for _, v := range views {
		walk(v)
	}
	return b.String()
}

// findSpan returns the first span in views (depth first) whose name has
// the given prefix.
func findSpan(views []*obs.SpanView, prefix string) *obs.SpanView {
	for _, v := range views {
		if strings.HasPrefix(v.Name, prefix) {
			return v
		}
		if c := findSpan(v.Children, prefix); c != nil {
			return c
		}
	}
	return nil
}

// TestFabricTraceParity: with no remote worker registered a -fabric
// server's job merges its cliques in-process exactly as a solo server's
// does, so both give the same result bytes, the same span tree (each
// multi-mode clique a merge:<names> span with its prelim, clock_refine
// and data_refine children) and a data_refine stage time.
func TestFabricTraceParity(t *testing.T) {
	var shapes, results [2]string
	for i, cfg := range []Config{
		{Workers: 1, Logger: quietSlog()},
		{Workers: 1, Logger: quietSlog(), Fabric: FabricConfig{Enabled: true}},
	} {
		s := newTestServer(t, cfg)
		job, err := s.Submit(threeModeRequest())
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		if job.Status() != StatusDone {
			t.Fatalf("server %d: job %s, error %q", i, job.Status(), job.View().Error)
		}
		results[i] = string(resultJSON(t, job))
		tree := job.TraceTree()
		shapes[i] = spanShape(tree)
		merge := findSpan(tree, "merge:")
		if merge == nil || merge.Attrs["fabric"] != "" {
			t.Fatalf("server %d: no in-process merge span in %s", i, shapes[i])
		}
		for _, stage := range []string{"prelim", "clock_refine", "data_refine"} {
			if findSpan(merge.Children, stage) == nil {
				t.Fatalf("server %d: %s has no %s child: %s", i, merge.Name, stage, shapes[i])
			}
		}
		if _, ok := job.View().StagesMS["data_refine"]; !ok {
			t.Fatalf("server %d: stages %v lack data_refine", i, job.View().StagesMS)
		}
		if st := s.fabric.Status(); st.Completed != 1 || st.Steals != 0 {
			t.Fatalf("server %d: cluster status %+v, want one in-process completion", i, st)
		}
	}
	if results[0] != results[1] {
		t.Fatalf("results differ:\nsolo:   %s\nfabric: %s", results[0], results[1])
	}
	if shapes[0] != shapes[1] {
		t.Fatalf("span trees differ:\nsolo:   %s\nfabric: %s", shapes[0], shapes[1])
	}
}

// countMergeSpans counts merge:<names> spans merged in-process and on
// the fabric.
func countMergeSpans(views []*obs.SpanView) (local, remote int) {
	for _, v := range views {
		if strings.HasPrefix(v.Name, "merge:") {
			if v.Attrs["fabric"] != "" {
				remote++
			} else {
				local++
			}
		}
		l, r := countMergeSpans(v.Children)
		local, remote = local+l, remote+r
	}
	return local, remote
}

// TestFabricWorkStealingIdentity: design A (16 multi-mode cliques) on a
// coordinator whose jobs merge one clique at a time in-process while one
// remote worker steals the rest. The result body is byte-identical to a
// solo server's, and every multi-mode clique ran exactly once, on one
// side or the other, with no retries. How the cliques split depends on
// timing and is not asserted.
func TestFabricWorkStealingIdentity(t *testing.T) {
	req := paperRequest(t, "A")
	solo := newTestServer(t, Config{Workers: 1, IncrCacheSize: 16, Logger: quietSlog()})
	_, want := mergeOverHTTP(t, serveHTTP(t, solo), req)

	s := newTestServer(t, Config{
		Workers: 1, IncrCacheSize: 16, Logger: quietSlog(),
		Fabric: FabricConfig{Enabled: true, LocalExecutors: 1},
	})
	url := serveHTTP(t, s)
	joinWorker(t, s, url)
	id, got := mergeOverHTTP(t, url, req)
	if !bytes.Equal(got, want) {
		t.Fatalf("work-stealing result differs from solo:\nfabric: %s\nsolo:   %s", got, want)
	}

	var res Result
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, g := range res.Groups {
		if len(g) > 1 {
			multi++
		}
	}
	job, _ := s.Job(id)
	local, remote := countMergeSpans(job.TraceTree())
	st := s.fabric.Status()
	if local+remote != multi || int64(remote) != st.Steals || st.Completed != int64(multi) || st.Retries != 0 {
		t.Fatalf("%d multi-mode cliques: %d merged in-process, %d on the fabric; cluster %+v",
			multi, local, remote, st)
	}
	t.Log(fmt.Sprintf("%d cliques: %d in-process, %d stolen", multi, local, remote))
}
