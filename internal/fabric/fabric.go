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
	"modemerge/internal/netlist"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

// WireVersion is the fabric wire API version, embedded in every route
// (/fabric/v1/...). Coordinator and worker must agree; the join
// handshake rejects mismatches.
const WireVersion = 1

// Mode is one member mode of a clique job, with its SDC text as the
// user sent it. It is also the service's mode input (service.ModeInput).
type Mode struct {
	Name string `json:"name"`
	SDC  string `json:"sdc"`
}

// ParseModes parses each mode's SDC text against design d.
func ParseModes(d *netlist.Design, modes []Mode) ([]*sdc.Mode, error) {
	out := make([]*sdc.Mode, len(modes))
	for i, m := range modes {
		mode, _, err := sdc.Parse(m.Name, m.SDC, d)
		if err != nil {
			return nil, fmt.Errorf("mode %s: %w", m.Name, err)
		}
		out[i] = mode
	}
	return out, nil
}

// Spec is one self-contained clique merge job: everything a worker
// needs to reconstruct the design, re-parse the member modes and run
// core.MergeClique. Key is the clique's content address
// (core.CliqueKey) — the job's identity, its artifact's name in the
// shared store, and what makes retries idempotent.
type Spec struct {
	Key string `json:"key"`

	graph.Source

	MergedName          string           `json:"merged_name,omitempty"`
	Tolerance           float64          `json:"tolerance,omitempty"`
	MaxRefineIterations int              `json:"max_refine_iterations,omitempty"`
	STAWorkers          int              `json:"sta_workers,omitempty"`
	Corners             []library.Corner `json:"corners,omitempty"`

	Members []Mode `json:"members"`
}

// NewSpec builds the clique job that merges members, parsed as group,
// on the graph g built from src, under opt. The spec carries exactly the
// options core.CliqueKey hashes; Options maps them back.
func NewSpec(src graph.Source, g *graph.Graph, opt core.Options, members []Mode, group []*sdc.Mode) Spec {
	return Spec{
		Key:                 core.CliqueKey(g, opt, group),
		Source:              src,
		MergedName:          opt.MergedName,
		Tolerance:           opt.Tolerance,
		MaxRefineIterations: opt.MaxRefineIterations,
		STAWorkers:          opt.STA.Workers,
		Corners:             opt.Corners,
		Members:             members,
	}
}

// Options returns the core options the spec encodes, merging with
// parallelism and through cache; neither changes merged bytes.
func (s *Spec) Options(parallelism int, cache *incr.Cache) core.Options {
	return core.Options{
		Tolerance:           s.Tolerance,
		MaxRefineIterations: s.MaxRefineIterations,
		MergedName:          s.MergedName,
		Parallelism:         parallelism,
		Corners:             s.Corners,
		STA:                 sta.Options{Workers: s.STAWorkers},
		Cache:               cache,
	}
}

// Executor runs clique specs on a worker: it reconstructs designs
// through the cache's design granularity (graph.LoadCached), merges via
// core.MergeClique, and guarantees the artifact is in the store under
// spec.Key before reporting success.
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

// Execute runs one clique job and returns the artifact bytes now
// guaranteed to be stored under (clique, spec.Key). Every clique of one
// design shares the design's cached graph, whose shared build ignores
// ctx's cancellation, so one canceled clique cannot fail the others.
func (e *Executor) Execute(ctx context.Context, spec *Spec) ([]byte, error) {
	if len(spec.Members) < 2 {
		return nil, fmt.Errorf("fabric: clique job needs at least 2 members, got %d", len(spec.Members))
	}
	g, _, err := graph.LoadCached(ctx, context.WithoutCancel(ctx), e.cache, spec.Source)
	if err != nil {
		return nil, err
	}
	group, err := ParseModes(g.Design, spec.Members)
	if err != nil {
		return nil, err
	}
	opt := spec.Options(e.parallelism, e.cache)
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
