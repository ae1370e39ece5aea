// Package fabric is the distributed merge fabric: a coordinator that
// plans merge jobs and publishes per-clique work to a work-stealing
// queue, plus merge workers that pull clique jobs over a small
// versioned HTTP wire API and execute them against a shared
// content-addressed artifact store (incr.BlobStore).
//
// Safety argument, in one paragraph: a clique job is a pure function of
// its spec — design source, result-affecting options and member mode
// texts — and its artifact is stored under core.CliqueKey, a content
// address every node computes identically. Clique merges are
// deterministic at any parallelism (the engine's byte-identity
// guarantee), so executing a job twice writes the same bytes to the
// same key. A worker dying mid-merge therefore costs only time: the
// coordinator's lease expires, the job returns to the queue, and any
// other node (or the publishing job itself) re-runs it with no way to
// diverge. Output at any worker count, including across worker deaths,
// is byte-identical to the single-process path.
package fabric

import (
	"context"
	"fmt"

	"modemerge/internal/core"
	"modemerge/internal/graph"
	"modemerge/internal/incr"
	"modemerge/internal/library"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

// WireVersion is the fabric wire API version, embedded in every route
// (/fabric/v1/...). Coordinator and worker must agree; the join
// handshake rejects mismatches.
const WireVersion = 1

// Mode is one member mode of a clique job.
type Mode struct {
	Name string `json:"name"`
	SDC  string `json:"sdc"`
}

// Corner mirrors library.Corner over the wire.
type Corner struct {
	Name        string  `json:"name"`
	DelayScale  float64 `json:"delay_scale,omitempty"`
	EarlyScale  float64 `json:"early_scale,omitempty"`
	LateScale   float64 `json:"late_scale,omitempty"`
	MarginScale float64 `json:"margin_scale,omitempty"`
	SDC         string  `json:"sdc,omitempty"`
}

// Spec is one self-contained clique merge job: everything a worker
// needs to reconstruct the design, re-parse the member modes and run
// core.MergeClique. Key is the clique's content address
// (core.CliqueKey) — the job's identity, its artifact's name in the
// shared store, and what makes retries idempotent.
type Spec struct {
	Key string `json:"key"`

	Verilog string `json:"verilog"`
	Top     string `json:"top,omitempty"`
	Library string `json:"library,omitempty"`

	MergedName          string   `json:"merged_name,omitempty"`
	Tolerance           float64  `json:"tolerance,omitempty"`
	MaxRefineIterations int      `json:"max_refine_iterations,omitempty"`
	STAWorkers          int      `json:"sta_workers,omitempty"`
	Corners             []Corner `json:"corners,omitempty"`

	Members []Mode `json:"members"`
}

// CoreCorners converts the wire corners back to library corners.
func (s *Spec) CoreCorners() []library.Corner {
	if len(s.Corners) == 0 {
		return nil
	}
	out := make([]library.Corner, len(s.Corners))
	for i, c := range s.Corners {
		out[i] = library.Corner{
			Name: c.Name, DelayScale: c.DelayScale, EarlyScale: c.EarlyScale,
			LateScale: c.LateScale, MarginScale: c.MarginScale, SDC: c.SDC,
		}
	}
	return out
}

// WireCorners converts library corners to their wire form.
func WireCorners(corners []library.Corner) []Corner {
	if len(corners) == 0 {
		return nil
	}
	out := make([]Corner, len(corners))
	for i, c := range corners {
		out[i] = Corner{
			Name: c.Name, DelayScale: c.DelayScale, EarlyScale: c.EarlyScale,
			LateScale: c.LateScale, MarginScale: c.MarginScale, SDC: c.SDC,
		}
	}
	return out
}

// Executor runs clique specs on a worker: it reconstructs designs
// through the cache's design granularity (every clique of one job
// shares the design), merges via core.MergeClique, and guarantees the
// artifact is in the store under spec.Key before reporting success.
type Executor struct {
	store       incr.BlobStore
	cache       *incr.Cache
	parallelism int
}

// NewExecutor creates an executor that merges through cache, whose
// artifact store (cache.Store(), which must be set) is the store shared
// with the coordinator. The cache's write-through makes repeated cliques
// of one design cheap and publishes pair verdicts and clique artifacts
// for other nodes. parallelism bounds intra-merge worker pools; it never
// affects merged bytes.
func NewExecutor(cache *incr.Cache, parallelism int) *Executor {
	return &Executor{store: cache.Store(), cache: cache, parallelism: parallelism}
}

// design returns the spec's timing graph, built once per design source.
// The shared build ignores ctx's cancellation, so one canceled clique
// cannot fail the others waiting on the same design.
func (e *Executor) design(ctx context.Context, spec *Spec) (*graph.Graph, error) {
	key := incr.Hash("lib", spec.Library, "top", spec.Top, "v", spec.Verilog)
	v, _, err := e.cache.Build(ctx, incr.GranDesign, key, func() (any, error) {
		g, _, err := graph.Load(context.WithoutCancel(ctx), spec.Verilog, spec.Library, spec.Top)
		return g, err
	})
	if err != nil {
		return nil, err
	}
	return v.(*graph.Graph), nil
}

// Execute runs one clique job and returns the artifact bytes now
// guaranteed to be stored under (clique, spec.Key).
func (e *Executor) Execute(ctx context.Context, spec *Spec) ([]byte, error) {
	if len(spec.Members) < 2 {
		return nil, fmt.Errorf("fabric: clique job needs at least 2 members, got %d", len(spec.Members))
	}
	g, err := e.design(ctx, spec)
	if err != nil {
		return nil, err
	}
	group := make([]*sdc.Mode, len(spec.Members))
	for i, m := range spec.Members {
		mode, _, err := sdc.Parse(m.Name, m.SDC, g.Design)
		if err != nil {
			return nil, fmt.Errorf("mode %s: %w", m.Name, err)
		}
		group[i] = mode
	}
	// The core options the spec encodes: exactly the result-affecting
	// ones hashed into spec.Key, plus parallelism, which never changes
	// merged bytes.
	opt := core.Options{
		Tolerance:           spec.Tolerance,
		MaxRefineIterations: spec.MaxRefineIterations,
		MergedName:          spec.MergedName,
		Parallelism:         e.parallelism,
		Corners:             spec.CoreCorners(),
		STA:                 sta.Options{Workers: spec.STAWorkers},
		Cache:               e.cache,
	}
	if key := core.CliqueKey(g, opt, group); key != spec.Key {
		// The job's identity must round-trip: a mismatch means the spec
		// was corrupted or coordinator and worker disagree on options.
		return nil, fmt.Errorf("fabric: clique key mismatch: spec %s, computed %s", spec.Key, key)
	}
	merged, report, err := core.MergeClique(ctx, g, group, opt)
	if err != nil {
		return nil, err
	}
	// MergeClique already stored the artifact through the write-through
	// cache under the same content address; read it back so the bytes we
	// return are exactly the stored ones. If the store lost it (or the
	// cache skipped an unserializable report), re-encode and put
	// explicitly — success must imply the artifact is durable.
	if b, err := e.store.Get(string(incr.GranClique), spec.Key); err == nil {
		return b, nil
	}
	b, err := core.EncodeCliqueArtifact(merged, report, nil)
	if err != nil {
		return nil, fmt.Errorf("fabric: encoding artifact: %w", err)
	}
	if err := e.store.Put(string(incr.GranClique), spec.Key, b); err != nil {
		return nil, fmt.Errorf("fabric: storing artifact: %w", err)
	}
	return b, nil
}
