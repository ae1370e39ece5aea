package service

// /v2 API surface tests: the error envelope's shape and codes on every
// failure path, Idempotency-Key semantics, and jobs-list pagination and
// filtering. TestEndToEndHTTP covers the happy path end to end.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// postJSON posts body to url with optional Idempotency-Key.
func postJSON(t *testing.T, url string, body []byte, idemKey string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeEnvelope asserts the response is a /v2 error with the wanted
// status and code, and returns the envelope for detail checks.
func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) v2Error {
	t.Helper()
	var env v2ErrorResponse
	decodeBody(t, resp, wantStatus, &env)
	if env.Error.Code != wantCode {
		t.Fatalf("error code = %q, want %q (message: %s)", env.Error.Code, wantCode, env.Error.Message)
	}
	if env.Error.Message == "" {
		t.Fatal("error envelope has an empty message")
	}
	return env.Error
}

func TestV2SubmitHappyPath(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(quickRequest())
	resp := postJSON(t, ts.URL+"/v2/merge", body, "")
	var sub submitResponseV2
	decodeBody(t, resp, http.StatusAccepted, &sub)
	if sub.ID == "" || sub.Digest == "" || sub.Cached {
		t.Fatalf("submit = %+v, want fresh job with id and digest", sub)
	}

	job, ok := s.Job(sub.ID)
	if !ok {
		t.Fatal("submitted job not found")
	}
	waitDone(t, job)

	var view JobView
	r2, err := http.Get(ts.URL + "/v2/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, r2, http.StatusOK, &view)
	if view.Status != StatusDone || view.Digest != sub.Digest {
		t.Fatalf("job view = %+v, want done with digest %s", view, sub.Digest)
	}

	var result Result
	r3, err := http.Get(ts.URL + "/v2/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, r3, http.StatusOK, &result)
	if len(result.Merged) == 0 {
		t.Fatalf("result has no merged modes: %+v", result)
	}

	var trace traceResponse
	r4, err := http.Get(ts.URL + "/v2/jobs/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, r4, http.StatusOK, &trace)
	if trace.ID != sub.ID || len(trace.Trace) == 0 {
		t.Fatalf("trace = id %s with %d spans, want %s with spans", trace.ID, len(trace.Trace), sub.ID)
	}
}

func TestV2MalformedJSON(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v2/merge", []byte(`{"verilog": `), "")
	decodeEnvelope(t, resp, http.StatusBadRequest, codeInvalidRequest)

	// Unknown fields are rejected too (DisallowUnknownFields).
	resp = postJSON(t, ts.URL+"/v2/merge", []byte(`{"bogus_field": 1}`), "")
	decodeEnvelope(t, resp, http.StatusBadRequest, codeInvalidRequest)
}

func TestV2OversizedBody(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A syntactically valid prefix followed by > maxRequestBytes of
	// padding, so the size cap (not the JSON parser) must trip.
	body := append([]byte(`{"verilog": "`), bytes.Repeat([]byte("x"), maxRequestBytes+1)...)
	resp := postJSON(t, ts.URL+"/v2/merge", body, "")
	e := decodeEnvelope(t, resp, http.StatusRequestEntityTooLarge, codePayloadTooLarge)
	if lim, ok := e.Details["limit_bytes"].(float64); !ok || int(lim) != maxRequestBytes {
		t.Fatalf("details.limit_bytes = %v, want %d", e.Details["limit_bytes"], maxRequestBytes)
	}
}

func TestV2UnknownAndMalformedJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, route := range []string{"/v2/jobs/j999999", "/v2/jobs/j999999/result", "/v2/jobs/j999999/trace"} {
		resp, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		e := decodeEnvelope(t, resp, http.StatusNotFound, codeNotFound)
		if e.Details["id"] != "j999999" {
			t.Fatalf("%s: details.id = %v, want j999999", route, e.Details["id"])
		}
	}

	// idSafe rejects path separators; %5C is an escaped backslash, which
	// the mux passes through as one {id} segment.
	resp, err := http.Get(ts.URL + "/v2/jobs/ba%5Cd")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusBadRequest, codeInvalidRequest)
}

func TestV2ResultBeforeDone(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := quickRequest()
	req.Verilog = bigVerilog(5000)
	body, _ := json.Marshal(req)
	var sub submitResponseV2
	decodeBody(t, postJSON(t, ts.URL+"/v2/merge", body, ""), http.StatusAccepted, &sub)

	resp, err := http.Get(ts.URL + "/v2/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	e := decodeEnvelope(t, resp, http.StatusConflict, codeConflict)
	if got := e.Details["status"]; got != string(StatusQueued) && got != string(StatusRunning) {
		t.Fatalf("details.status = %v, want queued or running", got)
	}

	// Cancel while non-terminal is accepted...
	resp = postJSON(t, ts.URL+"/v2/jobs/"+sub.ID+"/cancel", nil, "")
	var view JobView
	decodeBody(t, resp, http.StatusAccepted, &view)
	job, _ := s.Job(sub.ID)
	waitDone(t, job)

	// ...and the canceled job's result stays a 409 conflict.
	resp, err = http.Get(ts.URL + "/v2/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusConflict, codeConflict)
}

func TestV2CancelAfterDone(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(quickRequest())
	var sub submitResponseV2
	decodeBody(t, postJSON(t, ts.URL+"/v2/merge", body, ""), http.StatusAccepted, &sub)
	job, _ := s.Job(sub.ID)
	waitDone(t, job)
	if job.Status() != StatusDone {
		t.Fatalf("job ended %s, want done", job.Status())
	}

	resp := postJSON(t, ts.URL+"/v2/jobs/"+sub.ID+"/cancel", nil, "")
	e := decodeEnvelope(t, resp, http.StatusConflict, codeConflict)
	if e.Details["status"] != string(StatusDone) {
		t.Fatalf("details.status = %v, want done", e.Details["status"])
	}
}

func TestV2Idempotency(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(quickRequest())
	var first submitResponseV2
	decodeBody(t, postJSON(t, ts.URL+"/v2/merge", body, "key-1"), http.StatusAccepted, &first)

	// Replay with the same key and payload: 200 with the original job.
	var replay submitResponseV2
	decodeBody(t, postJSON(t, ts.URL+"/v2/merge", body, "key-1"), http.StatusOK, &replay)
	if replay.ID != first.ID || replay.Digest != first.Digest {
		t.Fatalf("replay = %+v, want original job %+v", replay, first)
	}

	// Same key, different payload: conflict naming the original job.
	other := quickRequest()
	other.Modes[0].Name = "func_b"
	body2, _ := json.Marshal(other)
	resp := postJSON(t, ts.URL+"/v2/merge", body2, "key-1")
	e := decodeEnvelope(t, resp, http.StatusConflict, codeIdempotencyMismatch)
	if e.Details["key"] != "key-1" || e.Details["job_id"] != first.ID {
		t.Fatalf("details = %v, want key key-1 and job_id %s", e.Details, first.ID)
	}

	// A different key with the same payload is an independent submit.
	resp = postJSON(t, ts.URL+"/v2/merge", body, "key-2")
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh key status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// A key is held as long as its job is in the job history: once the
	// job has aged out, the key is free, so even a different payload
	// under it is a fresh submit rather than a conflict.
	hs := newTestServer(t, Config{Workers: 1, JobHistoryLimit: 1})
	hts := httptest.NewServer(hs.Handler())
	defer hts.Close()
	var old submitResponseV2
	decodeBody(t, postJSON(t, hts.URL+"/v2/merge", body, "key-3"), http.StatusAccepted, &old)
	oldJob, _ := hs.Job(old.ID)
	waitDone(t, oldJob)
	next, err := hs.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, next)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := hs.Job(old.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s outlived a job history of 1", old.ID)
		}
	}
	hs.mu.Lock()
	held := len(hs.idem)
	hs.mu.Unlock()
	if held != 0 {
		t.Fatalf("%d Idempotency-Keys held after their job left the history", held)
	}
	var fresh submitResponseV2
	decodeBody(t, postJSON(t, hts.URL+"/v2/merge", body2, "key-3"), http.StatusAccepted, &fresh)
	if fresh.ID == old.ID || fresh.Digest == old.Digest {
		t.Fatalf("aged-out key replayed job %+v, want a fresh submit", old)
	}
}

func TestV2JobsPaginationAndFilter(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 5
	var ids []string
	for i := 0; i < n; i++ {
		req := quickRequest()
		req.Modes[0].Name = fmt.Sprintf("func_%d", i) // distinct digests
		job, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
		waitDone(t, job)
	}
	sort.Strings(ids)

	// Walk pages of 2: 2 + 2 + 1, cursors chaining, ids ascending.
	var got []string
	cursor := ""
	for page := 0; ; page++ {
		url := ts.URL + "/v2/jobs?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var list jobsListResponse
		decodeBody(t, resp, http.StatusOK, &list)
		for _, v := range list.Jobs {
			got = append(got, v.ID)
		}
		if list.NextCursor == "" {
			break
		}
		cursor = list.NextCursor
		if page > n {
			t.Fatal("pagination does not terminate")
		}
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("job ids not ascending: %v", got)
	}
	if strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Fatalf("paged ids = %v, want %v", got, ids)
	}

	// Status filter: all jobs are done; no job is canceled.
	for filter, want := range map[string]int{"done": n, "canceled": 0} {
		resp, err := http.Get(ts.URL + "/v2/jobs?status=" + filter)
		if err != nil {
			t.Fatal(err)
		}
		var list jobsListResponse
		decodeBody(t, resp, http.StatusOK, &list)
		if len(list.Jobs) != want {
			t.Fatalf("status=%s returned %d jobs, want %d", filter, len(list.Jobs), want)
		}
	}

	// Invalid query parameters are envelope 400s.
	for _, q := range []string{"?limit=0", "?limit=501", "?limit=abc", "?status=bogus", "?cursor=ba%5Cd"} {
		resp, err := http.Get(ts.URL + "/v2/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		decodeEnvelope(t, resp, http.StatusBadRequest, codeInvalidRequest)
	}
}

func TestV2QueueFullRateLimited(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single worker with a slow blocker and wait until it is
	// actually running — only then is the queue slot the sole capacity.
	blocker := quickRequest()
	blocker.Verilog = bigVerilog(5000)
	bjob, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	defer bjob.Cancel()
	for deadline := time.Now().Add(10 * time.Second); bjob.Status() == StatusQueued; {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Fill the one queue slot, then the next distinct submission must
	// bounce with 429 + Retry-After in the v2 envelope.
	submit := func(i int) *http.Response {
		req := quickRequest()
		req.Modes[0].Name = fmt.Sprintf("func_%d", i)
		body, _ := json.Marshal(req)
		return postJSON(t, ts.URL+"/v2/merge", body, "")
	}
	resp := submit(0)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling submission: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()

	resp = submit(1)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	decodeEnvelope(t, resp, http.StatusTooManyRequests, codeRateLimited)
}

// TestV2RoutesRegistered drives every advertised /v2 pattern and expects
// anything but 404/405 — i.e. V2Routes() and the mux agree.
func TestV2RoutesRegistered(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, pattern := range V2Routes() {
		method, path, _ := strings.Cut(pattern, " ")
		path = strings.ReplaceAll(path, "{id}", "j000000")
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			// 404 is fine only as a not_found envelope for the fake job id,
			// never a mux miss (which serves text/plain).
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
				t.Errorf("%s: not registered (plain 404)", pattern)
			}
		}
		if resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("%s: method not allowed", pattern)
		}
	}
}

// TestV2StatsExpvarParity pins /v2/stats to the shared StatsSnapshot:
// the payload must carry exactly the snapshot's JSON keys plus "queue".
// A field added to one surface but not the other fails here.
func TestV2StatsExpvarParity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Run one job so counters are warm.
	job, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]json.RawMessage
	decodeBody(t, resp, http.StatusOK, &stats)

	snap, err := json.Marshal(s.metrics.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snapKeys map[string]json.RawMessage
	if err := json.Unmarshal(snap, &snapKeys); err != nil {
		t.Fatal(err)
	}
	for k := range snapKeys {
		if _, ok := stats[k]; !ok {
			t.Errorf("/v2/stats is missing snapshot key %q", k)
		}
	}
	for k := range stats {
		if _, ok := snapKeys[k]; !ok && k != "queue" {
			t.Errorf("/v2/stats key %q is not part of StatsSnapshot", k)
		}
	}
	if _, ok := stats["queue"]; !ok {
		t.Error("/v2/stats is missing the queue key")
	}
}
