package service

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"modemerge/internal/core"
	"modemerge/internal/fabric"
	"modemerge/internal/graph"
	"modemerge/internal/incr"
	"modemerge/internal/library"
	"modemerge/internal/obs"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle: Queued → Running → one of Done / Failed / Canceled.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// ModeInput is one SDC mode of a merge request: the member mode a
// fabric clique spec carries, with the text as the user sent it.
type ModeInput = fabric.Mode

// RequestOptions mirrors the tunable subset of core.Options.
type RequestOptions struct {
	Tolerance           float64 `json:"tolerance,omitempty"`
	Workers             int     `json:"workers,omitempty"`
	MaxRefineIterations int     `json:"max_refine_iterations,omitempty"`
}

// MergeRequest is the POST /v2/merge (and /v2/matrix) payload.
type MergeRequest struct {
	// Verilog is the structural netlist source (required).
	Verilog string `json:"verilog"`
	// Top selects the top module (default: inferred).
	Top string `json:"top,omitempty"`
	// Library is mini-library-format cell source (default: built-in).
	Library string `json:"library,omitempty"`
	// Modes are the SDC modes to merge (at least one).
	Modes []ModeInput `json:"modes"`
	// Corners defines the MCMM scenario matrix: the merge analyzes every
	// mode in every corner (#modes × #corners scenarios) and refines to
	// the across-corner worst case. Empty means corner-less merging —
	// byte-identical to the pre-corner API. Corner names must be unique:
	// a duplicate name would duplicate every "mode@corner" scenario key.
	Corners []library.Corner `json:"corners,omitempty"`
	// Options tunes the merge flow.
	Options RequestOptions `json:"options"`
	// Validate runs the equivalence check on each merged clique
	// (default true).
	Validate *bool `json:"validate,omitempty"`
	// TimeoutMS bounds the job's execution time, counted from the moment
	// a worker picks it up. 0 uses the server default; values above the
	// server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// testPanic makes the merge of clique 0 panic: on the job's own
	// goroutine when the job merges one clique at a time, on a clique
	// goroutine when it runs its cliques in parallel. Unexported so it is
	// unreachable from JSON payloads; only tests set it (same pattern as
	// core.Options.Inject fault injection).
	testPanic bool
}

func (r *MergeRequest) validateRequest() error {
	if r.Verilog == "" {
		return fmt.Errorf("verilog source is required")
	}
	if len(r.Modes) == 0 {
		return fmt.Errorf("at least one mode is required")
	}
	seen := map[string]bool{}
	for i, m := range r.Modes {
		if m.Name == "" {
			return fmt.Errorf("mode %d: name is required", i)
		}
		if m.SDC == "" {
			return fmt.Errorf("mode %q: sdc text is required", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("duplicate mode name %q", m.Name)
		}
		seen[m.Name] = true
	}
	if err := library.ValidateCorners(r.Corners); err != nil {
		return fmt.Errorf("scenario matrix: %w", err)
	}
	return nil
}

func (r *MergeRequest) wantValidate() bool { return r.Validate == nil || *r.Validate }

// resultKey content-addresses a request: identical design + library +
// modes + options (+ validate switch) share one cached result.
func (r *MergeRequest) resultKey() string {
	parts := []string{
		"lib", r.Library,
		"top", r.Top,
		"v", r.Verilog,
		"opt", fmt.Sprintf("%g|%d|%v", r.Options.Tolerance, r.Options.MaxRefineIterations, r.wantValidate()),
	}
	// Mode order is part of the key: clique seeding and merged-mode
	// naming follow submission order, so reordered mode lists are
	// different jobs.
	for _, m := range r.Modes {
		parts = append(parts, "mode", m.Name, m.SDC)
	}
	// The corner set is part of the key only when present, so corner-less
	// requests keep their historical digests (idempotency keys and result
	// caches survive the API addition).
	if len(r.Corners) > 0 {
		parts = append(parts, "corners", library.CornerSetKey(r.Corners))
	}
	return incr.Hash(parts...)
}

// source returns the request's design parse inputs.
func (r *MergeRequest) source() graph.Source {
	return graph.Source{Verilog: r.Verilog, Top: r.Top, Library: r.Library}
}

// MergedMode is one merged output mode.
type MergedMode struct {
	Name string `json:"name"`
	SDC  string `json:"sdc"`
}

// EquivalenceReport summarizes the equivalence check of one merged clique.
type EquivalenceReport struct {
	Merged      string   `json:"merged"`
	Equivalent  bool     `json:"equivalent"`
	Matched     int      `json:"matched_groups"`
	Pessimistic int      `json:"pessimistic_groups"`
	Optimistic  []string `json:"optimistic_mismatches,omitempty"`
	Unresolved  int      `json:"unresolved"`
}

// MatrixEntry is one cell of the reduced scenario matrix: a merged mode
// deployed in one corner. The input matrix has #modes × #corners
// scenarios; the output has #cliques × #corners entries.
type MatrixEntry struct {
	// Mode is the merged mode's name, Corner the corner's.
	Mode   string `json:"mode"`
	Corner string `json:"corner"`
	// SDC is the effective deployed constraint text: the merged mode's
	// SDC with the corner's overlay appended — exactly the text the
	// merge refined this scenario's context from.
	SDC string `json:"sdc"`
	// Scenarios are the member scenario keys ("mode@corner") this entry
	// covers: the clique's member modes, each in this entry's corner.
	Scenarios []string `json:"scenarios"`
}

// Result is the final payload of a finished merge job.
type Result struct {
	// Merged holds one mode per merge clique (singletons pass through).
	Merged []MergedMode `json:"merged"`
	// Reports are the per-clique merge reports, parallel to Merged.
	Reports []*core.Report `json:"reports"`
	// Groups lists the clique members by mode name, parallel to Merged.
	Groups [][]string `json:"groups"`
	// Conflicts explains non-mergeable mode pairs.
	Conflicts []core.NonMergeable `json:"conflicts,omitempty"`
	// Equivalence holds one report per validated multi-mode clique.
	Equivalence []EquivalenceReport `json:"equivalence,omitempty"`
	// Matrix is the reduced scenario matrix, merged-mode-major then
	// corner order; present only on corner (scenario-matrix) requests.
	Matrix []MatrixEntry `json:"matrix,omitempty"`
}

// Job is one queued merge. All mutable fields are guarded by mu; the
// HTTP layer reads them through snapshots.
type Job struct {
	ID string

	// digest is the request's content address (resultKey), set at submit
	// time and immutable after. Identical submissions share a digest, so
	// clients can correlate jobs with inputs and the idempotency layer
	// can detect key reuse across different payloads.
	digest string

	// traceID is the job's distributed-trace identity, set at submit time
	// and immutable after: either ingested from the request's W3C
	// traceparent header or freshly generated. Every span the job records,
	// every exported span record and every slog line carries it.
	traceID obs.TraceID

	// idemKey is the Idempotency-Key the job was submitted under ("" for
	// none), set at submit time and immutable after.
	idemKey string

	// req is set before the job is enqueued and read only by the worker.
	req *MergeRequest

	// ctx governs the job end to end; cancel aborts it (user cancel or
	// server drain). The per-job execution deadline wraps ctx when a
	// worker picks the job up.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	status   Status
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	cacheHit bool
	stage    string // pipeline stage currently executing
	stages   map[string]time.Duration
	result   *Result
	// tracer collects the job's span tree while it executes; it stays
	// readable after the job finishes (GET /v2/jobs/{id}/trace).
	tracer *obs.Tracer
	// panicMsg/panicStack record a worker panic for the flight recorder.
	panicMsg   string
	panicStack []byte

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

func newJob(id string, ctx context.Context, cancel context.CancelFunc) *Job {
	return &Job{
		ID:      id,
		ctx:     ctx,
		cancel:  cancel,
		status:  StatusQueued,
		created: time.Now(),
		stages:  map[string]time.Duration{},
		done:    make(chan struct{}),
	}
}

// Cancel requests cooperative cancellation of the job.
func (j *Job) Cancel() { j.cancel() }

// TraceID returns the job's distributed-trace identity.
func (j *Job) TraceID() obs.TraceID { return j.traceID }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the job's current state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the result once the job is done (nil otherwise).
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// markRunning transitions the job to running and returns how long it sat
// in the queue.
func (j *Job) markRunning() time.Duration {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	wait := j.started.Sub(j.created)
	j.mu.Unlock()
	return wait
}

func (j *Job) addStage(stage string, d time.Duration) {
	j.mu.Lock()
	j.stages[stage] += d
	j.mu.Unlock()
}

// noteStage records the pipeline stage the job is currently in, so crash
// logs can name it.
func (j *Job) noteStage(stage string) {
	j.mu.Lock()
	j.stage = stage
	j.mu.Unlock()
}

// notePanic records the panic value and goroutine stack captured by the
// worker's recover, before the job is marked terminal.
func (j *Job) notePanic(msg string, stack []byte) {
	j.mu.Lock()
	j.panicMsg = msg
	j.panicStack = stack
	j.mu.Unlock()
}

// currentStage returns the stage last noted by the worker.
func (j *Job) currentStage() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stage
}

// setTracer installs the job's tracer when execution starts.
func (j *Job) setTracer(tr *obs.Tracer) {
	j.mu.Lock()
	j.tracer = tr
	j.mu.Unlock()
}

// TraceTree returns the job's span forest (nil before execution starts).
func (j *Job) TraceTree() []*obs.SpanView {
	j.mu.Lock()
	tr := j.tracer
	j.mu.Unlock()
	return tr.Tree()
}

// finish moves the job to a terminal state. It reports false (and does
// nothing) when the job is already terminal, so late or duplicate
// completions cannot overwrite the first outcome or re-close done.
func (j *Job) finish(status Status, result *Result, err error) bool {
	j.mu.Lock()
	switch j.status {
	case StatusDone, StatusFailed, StatusCanceled:
		j.mu.Unlock()
		return false
	}
	j.status = status
	j.result = result
	if err != nil {
		j.err = err.Error()
	}
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel() // release the context's timer resources
	close(j.done)
	return true
}

// JobView is the JSON snapshot served at GET /v2/jobs/{id}.
type JobView struct {
	ID        string            `json:"id"`
	Digest    string            `json:"digest,omitempty"`
	TraceID   string            `json:"trace_id,omitempty"`
	Status    Status            `json:"status"`
	Error     string            `json:"error,omitempty"`
	Created   time.Time         `json:"created"`
	Started   *time.Time        `json:"started,omitempty"`
	Finished  *time.Time        `json:"finished,omitempty"`
	CacheHit  bool              `json:"cache_hit"`
	StagesMS  map[string]string `json:"stage_times_ms,omitempty"`
	HasResult bool              `json:"has_result"`
}

// View snapshots the job for JSON serving.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.ID,
		Digest:   j.digest,
		Status:   j.status,
		Error:    j.err,
		Created:  j.created,
		CacheHit: j.cacheHit,
	}
	if j.traceID.IsValid() {
		v.TraceID = j.traceID.String()
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if len(j.stages) > 0 {
		v.StagesMS = make(map[string]string, len(j.stages))
		for stage, d := range j.stages {
			v.StagesMS[stage] = strconv.FormatFloat(float64(d)/1e6, 'f', 3, 64)
		}
	}
	v.HasResult = j.result != nil
	return v
}
