package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"modemerge/internal/gen"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/sdc"
)

// TestEndToEndGeneratedDesign submits a synthetic multi-domain design
// from internal/gen — the same generator the differential fuzzing harness
// samples — through the full HTTP job flow: two clock domains with gated
// blocks and cross-domain paths, and a two-group mode family that must
// merge into exactly two cliques, both validated equivalent.
func TestEndToEndGeneratedDesign(t *testing.T) {
	dspec := gen.DesignSpec{Name: "svc_gen", Seed: 77, Domains: 2, BlocksPerDomain: 2,
		Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 2, IOPairs: 2}
	fspec := gen.FamilySpec{Groups: 2, ModesPerGroup: []int{3, 2}, BasePeriod: 2}
	g, err := gen.Generate(dspec)
	if err != nil {
		t.Fatal(err)
	}

	req := &MergeRequest{Verilog: netlist.WriteVerilog(g.Design)}
	for _, m := range g.Modes(fspec) {
		req.Modes = append(req.Modes, ModeInput{Name: m.Name, SDC: m.Text})
	}

	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v2/merge", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponseV2
	decodeBody(t, resp, http.StatusAccepted, &sub)
	if sub.ID == "" {
		t.Fatalf("submit = %+v, want job id", sub)
	}

	var view JobView
	deadline := time.Now().Add(120 * time.Second)
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

	resp, err = http.Get(ts.URL + "/v2/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var result Result
	decodeBody(t, resp, http.StatusOK, &result)

	// The family is built as two mutually non-mergeable groups; each must
	// collapse into one merged mode covering all its members.
	if len(result.Merged) != fspec.Groups {
		t.Fatalf("merged = %d modes, want %d (groups %v)", len(result.Merged), fspec.Groups, result.Groups)
	}
	total := 0
	for _, grp := range result.Groups {
		total += len(grp)
	}
	if total != fspec.TotalModes() {
		t.Fatalf("groups %v cover %d modes, want %d", result.Groups, total, fspec.TotalModes())
	}
	if len(result.Equivalence) != fspec.Groups {
		t.Fatalf("equivalence reports = %d, want %d", len(result.Equivalence), fspec.Groups)
	}
	for i, eq := range result.Equivalence {
		if !eq.Equivalent {
			t.Errorf("clique %d (%s) not equivalent: %+v", i, result.Merged[i].Name, eq)
		}
	}

	// Every merged SDC must parse against the generated design and carry
	// clocks from both domains plus the test clock namespace.
	design, err := netlist.ParseVerilog(req.Verilog, library.Default(), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range result.Merged {
		merged, _, err := sdc.Parse(mm.Name, mm.SDC, design)
		if err != nil {
			t.Fatalf("merged SDC %s does not parse: %v", mm.Name, err)
		}
		if len(merged.Clocks) < dspec.Domains {
			t.Errorf("merged mode %s has %d clocks, want >= %d", mm.Name, len(merged.Clocks), dspec.Domains)
		}
	}
}
