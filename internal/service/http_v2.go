package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"modemerge/internal/obs"
)

// The /v2 API answers every error with a uniform envelope and precise
// status codes:
//
//	{"error": {"code": "...", "message": "...", "details": {...}}}
//
// Codes are stable API surface (see docs/api.md and docs/openapi.yaml):
// invalid_request (400), payload_too_large (413), not_found (404),
// conflict (409), idempotency_mismatch (409), rate_limited (429),
// unavailable (503).
const (
	codeInvalidRequest      = "invalid_request"
	codePayloadTooLarge     = "payload_too_large"
	codeNotFound            = "not_found"
	codeConflict            = "conflict"
	codeIdempotencyMismatch = "idempotency_mismatch"
	codeRateLimited         = "rate_limited"
	codeUnavailable         = "unavailable"
)

// v2Error is the envelope body of every /v2 error response.
type v2Error struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

type v2ErrorResponse struct {
	Error v2Error `json:"error"`
}

func writeErrorV2(w http.ResponseWriter, status int, code, msg string, details map[string]any) {
	writeJSON(w, status, v2ErrorResponse{Error: v2Error{Code: code, Message: msg, Details: details}})
}

// v2Routes is the authoritative route table of the /v2 API; Handler
// registers exactly these patterns and docs/openapi.yaml documents
// exactly these paths (pinned by TestOpenAPICoversV2Routes).
var v2Routes = []string{
	"POST /v2/merge",
	"POST /v2/matrix",
	"GET /v2/jobs",
	"GET /v2/jobs/{id}",
	"GET /v2/jobs/{id}/result",
	"GET /v2/jobs/{id}/matrix",
	"GET /v2/jobs/{id}/trace",
	"POST /v2/jobs/{id}/cancel",
	"GET /v2/jobs/{id}/flight",
	"GET /v2/flights",
	"GET /v2/stats",
	"GET /v2/cluster",
}

// V2Routes lists the /v2 route patterns served by Handler (method,
// space, path — net/http ServeMux pattern syntax).
func V2Routes() []string { return append([]string(nil), v2Routes...) }

func (s *Server) registerV2(mux *http.ServeMux) {
	handlers := map[string]http.HandlerFunc{
		"POST /v2/merge":            s.handleSubmitV2,
		"POST /v2/matrix":           s.handleSubmitMatrixV2,
		"GET /v2/jobs":              s.handleJobsListV2,
		"GET /v2/jobs/{id}":         s.handleJobV2,
		"GET /v2/jobs/{id}/result":  s.handleResultV2,
		"GET /v2/jobs/{id}/matrix":  s.handleJobMatrixV2,
		"GET /v2/jobs/{id}/trace":   s.handleTraceV2,
		"POST /v2/jobs/{id}/cancel": s.handleCancelV2,
		"GET /v2/jobs/{id}/flight":  s.handleFlightV2,
		"GET /v2/flights":           s.handleFlightsV2,
		"GET /v2/stats":             s.handleStats,
		"GET /v2/cluster":           s.handleClusterV2,
	}
	for _, pattern := range v2Routes {
		mux.HandleFunc(pattern, withTraceContext(handlers[pattern]))
	}
}

// traceCtxKey keys the ingested W3C trace id in the request context.
type traceCtxKey struct{}

// withTraceContext implements W3C Trace Context on every /v2 route: a
// valid incoming traceparent header's trace id is adopted (so the job
// joins the caller's distributed trace), an absent or malformed header
// gets a fresh id, and the response always carries a traceparent header
// naming the trace this server acted in.
func withTraceContext(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		traceID, _, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if err != nil {
			traceID = obs.NewTraceID()
		}
		w.Header().Set("traceparent", obs.FormatTraceparent(traceID, obs.NewSpanID()))
		ctx := context.WithValue(r.Context(), traceCtxKey{}, traceID)
		h(w, r.WithContext(ctx))
	}
}

// requestTraceID returns the trace id withTraceContext stored on the
// request (zero when the middleware did not run).
func requestTraceID(r *http.Request) obs.TraceID {
	id, _ := r.Context().Value(traceCtxKey{}).(obs.TraceID)
	return id
}

// submitResponseV2 is the submit payload: the job's id and state, the
// request's content digest and the job's trace id, so clients can
// correlate jobs with inputs and with their own distributed traces.
type submitResponseV2 struct {
	ID      string `json:"id"`
	Status  Status `json:"status"`
	Cached  bool   `json:"cached"`
	Digest  string `json:"digest"`
	TraceID string `json:"trace_id,omitempty"`
}

func submitViewV2(job *Job) submitResponseV2 {
	view := job.View()
	return submitResponseV2{
		ID: job.ID, Status: view.Status, Cached: view.CacheHit,
		Digest: view.Digest, TraceID: view.TraceID,
	}
}

func (s *Server) handleSubmitV2(w http.ResponseWriter, r *http.Request) {
	s.submitV2(w, r, false)
}

// handleSubmitMatrixV2 is POST /v2/matrix: a merge submission that
// requires an MCMM scenario matrix (at least one corner). It shares the
// whole submit pipeline with POST /v2/merge — same idempotency layer,
// same digests, same job machinery — so a matrix job replayed through
// either route with the same Idempotency-Key resolves to one job.
func (s *Server) handleSubmitMatrixV2(w http.ResponseWriter, r *http.Request) {
	s.submitV2(w, r, true)
}

func (s *Server) submitV2(w http.ResponseWriter, r *http.Request, requireCorners bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var req MergeRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErrorV2(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				map[string]any{"limit_bytes": tooBig.Limit})
			return
		}
		writeErrorV2(w, http.StatusBadRequest, codeInvalidRequest, "invalid request body: "+err.Error(), nil)
		return
	}
	if requireCorners && len(req.Corners) == 0 {
		writeErrorV2(w, http.StatusBadRequest, codeInvalidRequest,
			"scenario matrix requires at least one corner (use POST /v2/merge for corner-less merges)", nil)
		return
	}

	idemKey := r.Header.Get("Idempotency-Key")
	if idemKey != "" {
		// Serialize check-then-submit so concurrent retries with one key
		// create exactly one job. A key is held as long as its job is in
		// the job history.
		s.idemMu.Lock()
		defer s.idemMu.Unlock()
		s.mu.Lock()
		job, ok := s.idem[idemKey]
		s.mu.Unlock()
		if ok {
			if job.digest != req.resultKey() {
				writeErrorV2(w, http.StatusConflict, codeIdempotencyMismatch,
					"Idempotency-Key was first used with a different request payload",
					map[string]any{"key": idemKey, "job_id": job.ID})
				return
			}
			// Replay: same key, same payload — return the original job.
			writeJSON(w, http.StatusOK, submitViewV2(job))
			return
		}
	}

	job, err := s.submit(&req, requestTraceID(r), idemKey)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeErrorV2(w, http.StatusTooManyRequests, codeRateLimited, err.Error(), nil)
		return
	case errors.Is(err, ErrDraining):
		writeErrorV2(w, http.StatusServiceUnavailable, codeUnavailable, err.Error(), nil)
		return
	case err != nil:
		writeErrorV2(w, http.StatusBadRequest, codeInvalidRequest, err.Error(), nil)
		return
	}
	writeJSON(w, http.StatusAccepted, submitViewV2(job))
}

// jobsListResponse is the GET /v2/jobs payload. NextCursor is set when
// more jobs exist beyond this page; pass it back as ?cursor= to resume.
type jobsListResponse struct {
	Jobs       []JobView `json:"jobs"`
	NextCursor string    `json:"next_cursor,omitempty"`
}

// jobIDLess orders job ids "j%06d" by sequence number: shorter ids sort
// first, equal lengths lexicographically, so ids past j999999 still
// order correctly.
func jobIDLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

func (s *Server) handleJobsListV2(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 50
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > 500 {
			writeErrorV2(w, http.StatusBadRequest, codeInvalidRequest,
				"limit must be an integer between 1 and 500", map[string]any{"limit": raw})
			return
		}
		limit = n
	}
	var statusFilter Status
	if raw := q.Get("status"); raw != "" {
		switch Status(raw) {
		case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCanceled:
			statusFilter = Status(raw)
		default:
			writeErrorV2(w, http.StatusBadRequest, codeInvalidRequest,
				"unknown status filter", map[string]any{"status": raw})
			return
		}
	}
	cursor := q.Get("cursor")
	if cursor != "" && !idSafe(cursor) {
		writeErrorV2(w, http.StatusBadRequest, codeInvalidRequest, "malformed cursor", nil)
		return
	}

	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobIDLess(jobs[i].ID, jobs[k].ID) })

	resp := jobsListResponse{Jobs: []JobView{}}
	for _, j := range jobs {
		if cursor != "" && !jobIDLess(cursor, j.ID) {
			continue // at or before the cursor: already served
		}
		view := j.View()
		if statusFilter != "" && view.Status != statusFilter {
			continue
		}
		if len(resp.Jobs) == limit {
			resp.NextCursor = resp.Jobs[limit-1].ID
			break
		}
		resp.Jobs = append(resp.Jobs, view)
	}
	writeJSON(w, http.StatusOK, resp)
}

// lookupJobV2 resolves the {id} path parameter, answering 400 or 404
// in the /v2 error envelope when it names no job.
func (s *Server) lookupJobV2(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	if !idSafe(id) {
		writeErrorV2(w, http.StatusBadRequest, codeInvalidRequest, "malformed job id", nil)
		return nil, false
	}
	job, ok := s.Job(id)
	if !ok {
		writeErrorV2(w, http.StatusNotFound, codeNotFound, "unknown job "+id,
			map[string]any{"id": id})
		return nil, false
	}
	return job, true
}

func (s *Server) handleJobV2(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.lookupJobV2(w, r); ok {
		writeJSON(w, http.StatusOK, job.View())
	}
}

func (s *Server) handleResultV2(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJobV2(w, r)
	if !ok {
		return
	}
	if requireDone(w, job) {
		writeJSON(w, http.StatusOK, job.Result())
	}
}

// requireDone reports whether the job is done, answering 409 conflict
// (naming the failure, or the state it is still in) when it is not.
func requireDone(w http.ResponseWriter, job *Job) bool {
	view := job.View()
	switch view.Status {
	case StatusDone:
		return true
	case StatusFailed, StatusCanceled:
		writeErrorV2(w, http.StatusConflict, codeConflict,
			"job "+job.ID+" is "+string(view.Status)+": "+view.Error,
			map[string]any{"id": job.ID, "status": view.Status})
	default:
		writeErrorV2(w, http.StatusConflict, codeConflict,
			"job "+job.ID+" is still "+string(view.Status),
			map[string]any{"id": job.ID, "status": view.Status})
	}
	return false
}

// matrixResponse is the GET /v2/jobs/{id}/matrix payload: one page of
// the reduced scenario matrix. NextCursor is set when more entries exist
// beyond this page; pass it back as ?cursor= to resume.
type matrixResponse struct {
	ID         string        `json:"id"`
	Total      int           `json:"total"`
	Entries    []MatrixEntry `json:"entries"`
	NextCursor string        `json:"next_cursor,omitempty"`
}

// handleJobMatrixV2 serves a done job's reduced scenario matrix with
// cursor pagination (the full matrix is #cliques × #corners entries of
// complete SDC texts — large designs want pages, not one payload). The
// cursor is the positional index of the first entry to serve: matrix
// order is deterministic (merged-mode-major, corner order as submitted),
// so positions are stable across requests.
func (s *Server) handleJobMatrixV2(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJobV2(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	limit := 50
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > 500 {
			writeErrorV2(w, http.StatusBadRequest, codeInvalidRequest,
				"limit must be an integer between 1 and 500", map[string]any{"limit": raw})
			return
		}
		limit = n
	}
	offset := 0
	if raw := q.Get("cursor"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeErrorV2(w, http.StatusBadRequest, codeInvalidRequest,
				"malformed cursor", map[string]any{"cursor": raw})
			return
		}
		offset = n
	}

	if !requireDone(w, job) {
		return
	}
	result := job.Result()
	if result == nil || len(result.Matrix) == 0 {
		writeErrorV2(w, http.StatusNotFound, codeNotFound,
			"job "+job.ID+" has no scenario matrix (submitted without corners)",
			map[string]any{"id": job.ID})
		return
	}

	resp := matrixResponse{ID: job.ID, Total: len(result.Matrix), Entries: []MatrixEntry{}}
	if offset < len(result.Matrix) {
		end := offset + limit
		if end > len(result.Matrix) {
			end = len(result.Matrix)
		}
		resp.Entries = append(resp.Entries, result.Matrix[offset:end]...)
		if end < len(result.Matrix) {
			resp.NextCursor = strconv.Itoa(end)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTraceV2(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJobV2(w, r)
	if !ok {
		return
	}
	tree := job.TraceTree()
	if tree == nil {
		tree = []*obs.SpanView{}
	}
	writeJSON(w, http.StatusOK, traceResponse{ID: job.ID, Status: job.Status(), Trace: tree})
}

// flightsResponse is the GET /v2/flights payload.
type flightsResponse struct {
	Flights []FlightSummary `json:"flights"`
}

// handleFlightsV2 lists the flight recorder's ring, newest first. A
// disabled recorder serves an empty list rather than an error, so
// clients need no capability probe.
func (s *Server) handleFlightsV2(w http.ResponseWriter, r *http.Request) {
	flights := s.flights.List()
	if flights == nil {
		flights = []FlightSummary{}
	}
	writeJSON(w, http.StatusOK, flightsResponse{Flights: flights})
}

// handleFlightV2 serves one job's flight recording. 404 when the job
// never triggered a recording (or the recorder is disabled) — the job
// itself may still exist at GET /v2/jobs/{id}.
func (s *Server) handleFlightV2(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !idSafe(id) {
		writeErrorV2(w, http.StatusBadRequest, codeInvalidRequest, "malformed job id", nil)
		return
	}
	rec, ok := s.flights.Get(id)
	if !ok {
		writeErrorV2(w, http.StatusNotFound, codeNotFound,
			"no flight recording for job "+id, map[string]any{"id": id})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleCancelV2 requests cancellation; a job already in a terminal
// state is a 409 conflict, so clients can distinguish "will stop" from
// "already over".
func (s *Server) handleCancelV2(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJobV2(w, r)
	if !ok {
		return
	}
	switch status := job.Status(); status {
	case StatusDone, StatusFailed, StatusCanceled:
		writeErrorV2(w, http.StatusConflict, codeConflict,
			"job "+job.ID+" is already "+string(status),
			map[string]any{"id": job.ID, "status": status})
	default:
		job.Cancel()
		writeJSON(w, http.StatusAccepted, job.View())
	}
}

// handleClusterV2 serves the merge fabric's cluster view: registered
// workers, queued and in-flight clique jobs, and the steal/retry/
// completion counters. Every server is a coordinator, so the route
// always answers; enabled=false means workers cannot join.
func (s *Server) handleClusterV2(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fabric.Status())
}
