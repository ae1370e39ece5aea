package service

// /v2 scenario-matrix API tests: request validation on POST /v2/matrix,
// idempotency-key semantics shared with /v2/merge, every error path of
// GET /v2/jobs/{id}/matrix, pagination over the reduced matrix, and the
// acceptance round trip — a 4-corner × 8-mode generated design whose
// matrix carries per-scenario provenance, plus byte-compatibility of a
// single-neutral-corner merge with the corner-less one.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
)

// matrixRequest is quickRequest plus a minimal two-corner matrix axis.
func matrixRequest() *MergeRequest {
	req := quickRequest()
	req.Corners = []library.Corner{
		{Name: "tc"},
		{Name: "wc", DelayScale: 1.2, LateScale: 1.1, MarginScale: 1.5},
	}
	return req
}

// getMatrix fetches one matrix page and decodes it.
func getMatrix(t *testing.T, url string) matrixResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var page matrixResponse
	decodeBody(t, resp, http.StatusOK, &page)
	return page
}

func TestV2MatrixRequestValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// /v2/matrix without corners: the route exists to make the matrix
	// contract explicit, so a corner-less body is rejected up front.
	body, _ := json.Marshal(quickRequest())
	e := decodeEnvelope(t, postJSON(t, ts.URL+"/v2/matrix", body, ""),
		http.StatusBadRequest, codeInvalidRequest)
	if e.Message == "" {
		t.Fatal("empty message on corner-less /v2/matrix submit")
	}

	// An unnamed corner fails ValidateCorners on either submit route.
	req := matrixRequest()
	req.Corners[1].Name = ""
	body, _ = json.Marshal(req)
	for _, route := range []string{"/v2/matrix", "/v2/merge"} {
		e = decodeEnvelope(t, postJSON(t, ts.URL+route, body, ""),
			http.StatusBadRequest, codeInvalidRequest)
		if want := "corner 1: name required"; !strings.Contains(e.Message, want) {
			t.Fatalf("%s error = %q, want mention of %q", route, e.Message, want)
		}
	}

	// Duplicate corner names are rejected too.
	req = matrixRequest()
	req.Corners[1].Name = req.Corners[0].Name
	body, _ = json.Marshal(req)
	e = decodeEnvelope(t, postJSON(t, ts.URL+"/v2/matrix", body, ""),
		http.StatusBadRequest, codeInvalidRequest)
	if want := `duplicate corner name "tc"`; !strings.Contains(e.Message, want) {
		t.Fatalf("error = %q, want mention of %q", e.Message, want)
	}
}

func TestV2MatrixIdempotency(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(matrixRequest())
	var first submitResponseV2
	decodeBody(t, postJSON(t, ts.URL+"/v2/matrix", body, "mkey-1"), http.StatusAccepted, &first)

	// Same key, same payload: the original job replays with 200.
	var replay submitResponseV2
	decodeBody(t, postJSON(t, ts.URL+"/v2/matrix", body, "mkey-1"), http.StatusOK, &replay)
	if replay.ID != first.ID || replay.Digest != first.Digest {
		t.Fatalf("replay = %+v, want original job %+v", replay, first)
	}

	// Same key, different corner set: idempotency mismatch.
	other := matrixRequest()
	other.Corners[1].DelayScale = 1.3
	body2, _ := json.Marshal(other)
	e := decodeEnvelope(t, postJSON(t, ts.URL+"/v2/matrix", body2, "mkey-1"),
		http.StatusConflict, codeIdempotencyMismatch)
	if e.Details["job_id"] != first.ID {
		t.Fatalf("details = %v, want job_id %s", e.Details, first.ID)
	}

	// The corner axis is part of the content address: the same modes
	// without corners digest differently, so the result cache can never
	// serve a corner-less merge for a matrix submission or vice versa.
	cornerless, _ := json.Marshal(quickRequest())
	var plain submitResponseV2
	decodeBody(t, postJSON(t, ts.URL+"/v2/merge", cornerless, ""), http.StatusAccepted, &plain)
	if plain.Digest == first.Digest {
		t.Fatalf("corner-bearing and corner-less payloads share digest %s", first.Digest)
	}
}

func TestV2MatrixErrorPaths(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Unknown job id.
	resp, err := http.Get(ts.URL + "/v2/jobs/j999999/matrix")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusNotFound, codeNotFound)

	// A job that is not done yet is a conflict, mirroring /result.
	slow := matrixRequest()
	slow.Verilog = bigVerilog(5000)
	body, _ := json.Marshal(slow)
	var sub submitResponseV2
	decodeBody(t, postJSON(t, ts.URL+"/v2/matrix", body, ""), http.StatusAccepted, &sub)
	resp, err = http.Get(ts.URL + "/v2/jobs/" + sub.ID + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	e := decodeEnvelope(t, resp, http.StatusConflict, codeConflict)
	if got := e.Details["status"]; got != string(StatusQueued) && got != string(StatusRunning) {
		t.Fatalf("details.status = %v, want queued or running", got)
	}
	resp = postJSON(t, ts.URL+"/v2/jobs/"+sub.ID+"/cancel", nil, "")
	resp.Body.Close()
	if job, ok := s.Job(sub.ID); ok {
		waitDone(t, job)
	}

	// A done corner-less job has no matrix: 404, not an empty page.
	body, _ = json.Marshal(quickRequest())
	var plain submitResponseV2
	decodeBody(t, postJSON(t, ts.URL+"/v2/merge", body, ""), http.StatusAccepted, &plain)
	job, _ := s.Job(plain.ID)
	waitDone(t, job)
	resp, err = http.Get(ts.URL + "/v2/jobs/" + plain.ID + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusNotFound, codeNotFound)

	// Malformed paging parameters on a done matrix job.
	body, _ = json.Marshal(matrixRequest())
	var msub submitResponseV2
	decodeBody(t, postJSON(t, ts.URL+"/v2/matrix", body, ""), http.StatusAccepted, &msub)
	mjob, _ := s.Job(msub.ID)
	waitDone(t, mjob)
	for _, bad := range []string{"?limit=0", "?limit=501", "?limit=abc", "?cursor=-1", "?cursor=xyz"} {
		resp, err = http.Get(ts.URL + "/v2/jobs/" + msub.ID + "/matrix" + bad)
		if err != nil {
			t.Fatal(err)
		}
		decodeEnvelope(t, resp, http.StatusBadRequest, codeInvalidRequest)
	}

	// A cursor past the end is a valid empty page, not an error: cursors
	// are resume positions, and the end position is reachable.
	page := getMatrix(t, ts.URL+"/v2/jobs/"+msub.ID+"/matrix?cursor=1000")
	if len(page.Entries) != 0 || page.NextCursor != "" {
		t.Fatalf("past-the-end page = %+v, want empty with no cursor", page)
	}
}

// TestV2MatrixEndToEnd is the acceptance round trip: an 8-mode family on
// a generated multi-domain design crossed with 4 corners submits through
// POST /v2/matrix, and the finished job pages out a reduced scenario
// matrix whose entries carry per-scenario provenance — every one of the
// 8×4 scenarios appears exactly once, under its clique's merged mode in
// its own corner, with the corner overlay appended to the deployed SDC.
func TestV2MatrixEndToEnd(t *testing.T) {
	dspec := gen.DesignSpec{Name: "mx_gen", Seed: 77, Domains: 2, BlocksPerDomain: 2,
		Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 2, IOPairs: 2}
	fspec := gen.FamilySpec{Groups: 2, ModesPerGroup: []int{5, 3}, BasePeriod: 2, Corners: 4}
	g, err := gen.Generate(dspec)
	if err != nil {
		t.Fatal(err)
	}

	req := &MergeRequest{Verilog: netlist.WriteVerilog(g.Design)}
	for _, m := range g.Modes(fspec) {
		req.Modes = append(req.Modes, ModeInput{Name: m.Name, SDC: m.Text})
	}
	req.Corners = g.CornerSet(fspec)

	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(req)
	var sub submitResponseV2
	decodeBody(t, postJSON(t, ts.URL+"/v2/matrix", body, ""), http.StatusAccepted, &sub)
	job, ok := s.Job(sub.ID)
	if !ok {
		t.Fatal("submitted job not found")
	}
	waitDone(t, job)
	if job.Status() != StatusDone {
		t.Fatalf("job ended %s: %s", job.Status(), job.View().Error)
	}

	var result Result
	resp, err := http.Get(ts.URL + "/v2/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusOK, &result)
	if len(result.Merged) != fspec.Groups {
		t.Fatalf("merged = %d modes, want %d (groups %v)", len(result.Merged), fspec.Groups, result.Groups)
	}
	// Per-clique reports carry the corner axis as provenance.
	for i, rep := range result.Reports {
		if len(rep.Corners) != fspec.Corners {
			t.Fatalf("report %d corners = %v, want the %d submitted corner names", i, rep.Corners, fspec.Corners)
		}
	}

	// Page the matrix out in small pages and reassemble it.
	var entries []MatrixEntry
	url := ts.URL + "/v2/jobs/" + sub.ID + "/matrix?limit=3"
	for {
		page := getMatrix(t, url)
		if page.Total != fspec.Groups*fspec.Corners {
			t.Fatalf("matrix total = %d, want %d cliques x %d corners", page.Total, fspec.Groups, fspec.Corners)
		}
		entries = append(entries, page.Entries...)
		if page.NextCursor == "" {
			break
		}
		url = ts.URL + "/v2/jobs/" + sub.ID + "/matrix?limit=3&cursor=" + page.NextCursor
	}
	if len(entries) != fspec.Groups*fspec.Corners {
		t.Fatalf("paged out %d entries, want %d", len(entries), fspec.Groups*fspec.Corners)
	}
	// One request with no paging must agree with the paged walk.
	whole := getMatrix(t, ts.URL+"/v2/jobs/"+sub.ID+"/matrix?limit=500")
	if len(whole.Entries) != len(entries) {
		t.Fatalf("unpaged walk = %d entries, paged = %d", len(whole.Entries), len(entries))
	}
	for i := range entries {
		if entries[i].Mode != whole.Entries[i].Mode || entries[i].Corner != whole.Entries[i].Corner ||
			entries[i].SDC != whole.Entries[i].SDC {
			t.Fatalf("entry %d differs between paged and unpaged walks", i)
		}
	}

	// Scenario coverage: every (member mode, corner) pair exactly once,
	// filed under the clique that absorbed the member.
	memberClique := map[string]int{}
	for ci, grp := range result.Groups {
		for _, m := range grp {
			memberClique[m] = ci
		}
	}
	seen := map[string]bool{}
	for _, e := range entries {
		for _, sc := range e.Scenarios {
			if seen[sc] {
				t.Fatalf("scenario %s appears twice in the matrix", sc)
			}
			seen[sc] = true
		}
		if e.SDC == "" {
			t.Fatalf("entry %s@%s has an empty deployed SDC", e.Mode, e.Corner)
		}
	}
	for _, m := range req.Modes {
		for _, crn := range req.Corners {
			key := m.Name + "@" + crn.Name
			if !seen[key] {
				t.Fatalf("scenario %s missing from the matrix", key)
			}
			// The scenario must sit under its member's merged clique mode.
			want := result.Merged[memberClique[m.Name]].Name
			found := false
			for _, e := range entries {
				if e.Corner != crn.Name {
					continue
				}
				for _, sc := range e.Scenarios {
					if sc == key {
						if e.Mode != want {
							t.Fatalf("scenario %s filed under %s, want %s", key, e.Mode, want)
						}
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("scenario %s not filed under any entry", key)
			}
		}
	}

	// Corner overlays ride along: an entry in an overlay-bearing corner
	// embeds the overlay text; the neutral corner's entry is exactly the
	// merged base mode.
	for _, e := range entries {
		var crn *library.Corner
		for i := range req.Corners {
			if req.Corners[i].Name == e.Corner {
				crn = &req.Corners[i]
			}
		}
		if crn == nil {
			t.Fatalf("entry names unknown corner %s", e.Corner)
		}
		if crn.SDC != "" && !strings.Contains(e.SDC, crn.SDC) {
			t.Fatalf("entry %s@%s is missing the corner overlay", e.Mode, e.Corner)
		}
		if crn.SDC == "" {
			for _, mm := range result.Merged {
				if mm.Name == e.Mode && mm.SDC != e.SDC {
					t.Fatalf("neutral-corner entry %s@%s differs from the merged base mode", e.Mode, e.Corner)
				}
			}
		}
	}
}

// TestV2MatrixSingleNeutralCornerByteCompat pins the compatibility
// contract at the API layer: submitting the same modes with one neutral
// corner through /v2/matrix must produce byte-identical merged SDC to
// the corner-less /v2/merge submission — the corner axis degenerates
// cleanly instead of perturbing the historical output.
func TestV2MatrixSingleNeutralCornerByteCompat(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	run := func(req *MergeRequest, route string) *Result {
		body, _ := json.Marshal(req)
		var sub submitResponseV2
		decodeBody(t, postJSON(t, ts.URL+route, body, ""), http.StatusAccepted, &sub)
		job, _ := s.Job(sub.ID)
		waitDone(t, job)
		if job.Status() != StatusDone {
			t.Fatalf("%s job ended %s: %s", route, job.Status(), job.View().Error)
		}
		var result Result
		resp, err := http.Get(ts.URL + "/v2/jobs/" + sub.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, http.StatusOK, &result)
		return &result
	}

	plain := run(quickRequest(), "/v2/merge")
	single := matrixRequest()
	single.Corners = single.Corners[:1] // one neutral corner, no overlay
	matrixed := run(single, "/v2/matrix")

	if len(plain.Merged) != len(matrixed.Merged) {
		t.Fatalf("merged counts differ: %d vs %d", len(plain.Merged), len(matrixed.Merged))
	}
	for i := range plain.Merged {
		if plain.Merged[i].SDC != matrixed.Merged[i].SDC {
			t.Fatalf("merged mode %d differs between corner-less and single-neutral-corner runs:\n--- corner-less\n%s\n--- matrix\n%s",
				i, plain.Merged[i].SDC, matrixed.Merged[i].SDC)
		}
	}
	// And the matrix itself is one entry per clique, each byte-equal to
	// the merged base mode.
	if got, want := len(matrixed.Matrix), len(matrixed.Merged); got != want {
		t.Fatalf("matrix entries = %d, want %d", got, want)
	}
	for i, e := range matrixed.Matrix {
		if e.SDC != matrixed.Merged[i].SDC {
			t.Fatalf("matrix entry %d differs from its merged mode", i)
		}
	}
}

// TestV2MatrixDigestPinned pins the /v2/matrix digest of a corner
// request that sets every corner field, decoded from literal JSON, and
// keeps unknown corner fields rejected. The digest was captured while
// the service still declared its own corner type, so it shows that
// result caches and idempotency keys of corner requests kept their
// addresses when the request switched to library.Corner.
func TestV2MatrixDigestPinned(t *testing.T) {
	const want = "bfb0f1bc9865f1c658282f62cc11666a636048cb802ba5ffb5da6dca2a0961f7"
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	modes, _ := json.Marshal(quickRequest().Modes)
	body := `{"verilog": ` + jsonString(quickVerilog) + `, "modes": ` + string(modes) + `,
	  "corners": [{"name": "tc"},
	    {"name": "wc", "delay_scale": 1.2, "early_scale": 0.9, "late_scale": 1.1,
	     "margin_scale": 1.5, "sdc": "set_input_transition 0.1 [get_ports din]"}],
	  "options": {"tolerance": 0.07, "max_refine_iterations": 3}, "validate": false}`
	var sub submitResponseV2
	decodeBody(t, postJSON(t, ts.URL+"/v2/matrix", []byte(body), ""), http.StatusAccepted, &sub)
	if sub.Digest != want {
		t.Errorf("matrix digest = %s, want %s", sub.Digest, want)
	}

	unknown := strings.Replace(body, `"late_scale"`, `"late_scal"`, 1)
	e := decodeEnvelope(t, postJSON(t, ts.URL+"/v2/matrix", []byte(unknown), ""),
		http.StatusBadRequest, codeInvalidRequest)
	if !strings.Contains(e.Message, `unknown field "late_scal"`) {
		t.Fatalf("error = %q, want the unknown corner field named", e.Message)
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
