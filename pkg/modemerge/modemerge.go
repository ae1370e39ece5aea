// Package modemerge is the stable public Go API of the timing-graph
// based mode-merging flow (DAC 2015, "A timing graph based approach to
// mode merging"). It wraps the internal packages behind a small, stable
// surface:
//
//	design, err := modemerge.LoadDesign(verilogSrc, librarySrc, "")
//	modeA, _, err := design.ParseMode("func", funcSDC)
//	modeB, _, err := design.ParseMode("scan", scanSDC)
//	merged, reports, mb, err := modemerge.MergeAll(ctx, design,
//	        []*modemerge.Mode{modeA, modeB}, modemerge.Options{})
//
// Merged modes render back to SDC text with WriteSDC; per-merge
// provenance is available as an explain report via Report.Explain. The
// equivalence checker (CheckEquivalence) verifies a merged mode never
// relaxes its member modes — the paper's correct-by-construction
// validation, also usable standalone.
//
// Hierarchical merging: load a block-structured netlist with
// LoadHierDesign and set Options.Hierarchical — merges then refine per
// block through extracted timing models (never optimistic relative to
// the flat merge) and scale to designs too large for flat refinement.
//
// Incremental re-merging: give Options a Cache (NewCache) and repeated
// merges reuse per-mode analysis contexts, pairwise mergeability
// verdicts and whole-clique artifacts keyed by content address — editing
// one mode of N re-runs only that mode's share of the work, with results
// proven byte-identical to cold merges.
//
// This package's exported surface is covered by a golden API snapshot
// (api.golden); changes that remove or alter existing declarations fail
// CI and require a deliberate snapshot update.
package modemerge

import (
	"context"
	"fmt"

	"modemerge/internal/core"
	"modemerge/internal/graph"
	"modemerge/internal/incr"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/obs"
	"modemerge/internal/sdc"
)

// Mode is one parsed SDC constraint mode, bound to a design. Construct
// with Design.ParseMode; render with WriteSDC.
type Mode = sdc.Mode

// Report counts what one merge did (dropped/uniquified exceptions,
// refinement insertions, validation outcome) and carries the provenance
// records behind Report.Explain.
type Report = core.Report

// Explain is the structured explain report of one merged mode: one
// record per constraint decision. Render with Explain.Text or marshal to
// JSON.
type Explain = obs.Explain

// EquivalenceResult is the timing-relationship comparison between a
// merged mode and its member modes (see CheckEquivalence).
type EquivalenceResult = core.EquivalenceResult

// Conflict names a non-mergeable mode pair and the first conflicting
// constraint that separates them.
type Conflict = core.NonMergeable

// Mergeability is the pairwise mergeability graph over the input modes;
// Cliques partitions it into merge groups.
type Mergeability = core.Mergeability

// Corner is one operating corner of a multi-corner multi-mode scenario
// matrix: per-corner delay/margin derate factors plus an optional SDC
// overlay appended to every mode deployed in the corner. The zero
// factors mean 1.0, so Corner{Name: "tc"} is a neutral corner. Validate
// a set with ValidateCorners before merging.
type Corner = library.Corner

// ValidateCorners checks a corner set for merge use: every corner
// named, names unique.
func ValidateCorners(corners []Corner) error {
	return library.ValidateCorners(corners)
}

// CacheStats reports incremental-cache hits and misses per granularity.
type CacheStats = incr.StatsSnapshot

// DesignStats summarizes a loaded design's size.
type DesignStats = netlist.Stats

// Design is a loaded gate-level design: parsed cell library, elaborated
// netlist and built timing graph, immutable and safe for concurrent use.
// Designs loaded with LoadHierDesign additionally keep their block
// hierarchy, enabling Options.Hierarchical merging.
type Design struct {
	graph    *graph.Graph
	hier     *netlist.HierDesign
	warnings []string
}

// LoadDesign parses a structural Verilog netlist against a cell library
// (mini library format; empty selects the built-in library), validates
// it and builds the timing graph. top selects the top module; empty
// infers it.
func LoadDesign(verilog, librarySrc, top string) (*Design, error) {
	g, warnings, err := graph.Load(context.Background(), graph.Source{Verilog: verilog, Library: librarySrc, Top: top})
	if err != nil {
		return nil, err
	}
	return &Design{graph: g, warnings: warnings}, nil
}

// LoadHierDesign parses hierarchical structural Verilog (a top module
// instantiating block modules), flattens it for timing analysis, and
// keeps the block hierarchy so merges can run per-block through
// extracted timing models (Options.Hierarchical). Modes are parsed and
// merged against the flattened design; merged output references
// flattened (block-prefixed) names exactly like LoadDesign.
func LoadHierDesign(verilog, librarySrc, top string) (*Design, error) {
	g, hier, warnings, err := graph.LoadHier(context.Background(), graph.Source{Verilog: verilog, Library: librarySrc, Top: top})
	if err != nil {
		return nil, err
	}
	return &Design{graph: g, hier: hier, warnings: warnings}, nil
}

// Name returns the design's top module name.
func (d *Design) Name() string { return d.graph.Design.Name }

// Hierarchical reports whether the design kept a block hierarchy
// (loaded with LoadHierDesign) and can merge via extracted timing
// models.
func (d *Design) Hierarchical() bool { return d.hier != nil }

// Stats summarizes the design's size.
func (d *Design) Stats() DesignStats { return d.graph.Design.Stats() }

// Warnings lists non-fatal issues found while validating the design.
func (d *Design) Warnings() []string { return append([]string(nil), d.warnings...) }

// ParseMode parses SDC text into a mode named name, resolving object
// references against the design. ignored lists SDC commands the parser
// recognized but does not model (returned, not fatal).
func (d *Design) ParseMode(name, sdcText string) (mode *Mode, ignored []string, err error) {
	return sdc.Parse(name, sdcText, d.graph.Design)
}

// WriteSDC renders a mode back to canonical SDC text. The rendering is
// deterministic: semantically identical modes render byte-identically.
func WriteSDC(m *Mode) string { return sdc.Write(m) }

// Cache is an incremental re-merge cache shared across merges (and
// safely across goroutines). See the package comment and NewCache.
type Cache struct {
	c *incr.Cache
}

// NewCache creates an in-memory incremental cache bounded to capacity
// entries across all granularities (<= 0 selects the default, 4096).
func NewCache(capacity int) *Cache {
	return &Cache{c: incr.New(capacity)}
}

// BlobStore is a pluggable artifact backend for Cache (see
// Cache.WithStore): immutable, content-addressed blobs under
// (granularity, key). Implementations ship for local disk
// (NewDiskBlobStore), memory (NewMemBlobStore) and a remote blob
// service speaking the incr blob HTTP protocol (NewHTTPBlobStore) —
// the same interface the distributed merge fabric shares between
// coordinator and workers.
type BlobStore = incr.BlobStore

// NewMemBlobStore creates an in-memory blob store (tests, or sharing
// artifacts between caches of one process).
func NewMemBlobStore() BlobStore { return incr.NewMemStore() }

// NewDiskBlobStore creates (or reopens) a blob store rooted at dir.
func NewDiskBlobStore(dir string) (BlobStore, error) { return incr.NewDiskStore(dir) }

// NewHTTPBlobStore creates a client for a remote blob store at baseURL
// (an endpoint serving the incr blob protocol, e.g. a modemerged
// coordinator's /fabric/v1/blobs).
func NewHTTPBlobStore(baseURL string) BlobStore { return incr.NewHTTPStore(baseURL, nil) }

// WithStore attaches a blob store as the cache's write-through backend
// for the serializable granularities (pair verdicts and clique
// artifacts): puts publish, misses consult the store before re-merging.
// It returns c for chaining.
func (c *Cache) WithStore(s BlobStore) *Cache {
	c.c.WithStore(s)
	return c
}

// WithDisk persists the serializable cache granularities (pair verdicts
// and clique artifacts) under dir, so warm starts survive restarts. The
// directory is created if needed. It is shorthand for WithStore with a
// NewDiskBlobStore backend.
func (c *Cache) WithDisk(dir string) error {
	_, err := c.c.WithDisk(dir)
	return err
}

// Stats snapshots the cache's hit/miss counters.
func (c *Cache) Stats() CacheStats { return c.c.Stats().Snapshot() }

// Options tunes a merge. The zero value is a sensible default.
type Options struct {
	// Tolerance is the relative tolerance for merging clock-based and
	// drive/load constraint values across modes. Default 0.05.
	Tolerance float64
	// MergedName names the merged mode; default joins the member names
	// with "+".
	MergedName string
	// MaxRefineIterations bounds the refine→validate loop. Default 4.
	MaxRefineIterations int
	// Parallelism bounds the intra-merge worker pools. 0 uses all cores;
	// 1 forces the fully sequential path. Merged output is
	// byte-identical for every setting.
	Parallelism int
	// Workers bounds the per-mode timing-analysis worker pools (0 = all
	// cores). Like Parallelism, it never changes results.
	Workers int
	// Cache enables incremental re-merging (see NewCache). Nil disables
	// reuse.
	Cache *Cache
	// Hierarchical merges per block through extracted timing models
	// instead of refining the flat design monolithically: flat
	// preliminary merge and clock refinement, then per-block data
	// refinement on the block masters against projected member modes plus
	// an abstract top, stitched back under soundness guards. Requires a
	// design loaded with LoadHierDesign. The result is relation-
	// equivalent to the flat merge up to extra pessimism — never
	// optimistic — and scales to designs where flat refinement cannot
	// run.
	Hierarchical bool
	// Corners spans the merge over a multi-corner scenario matrix: a
	// clique merges only when it is mergeable in every corner, and
	// refinement targets the across-corner worst case, so the merged mode
	// deployed in any corner (its text plus the corner's overlay) is
	// never optimistic against any member in that corner. Empty keeps the
	// historical corner-less merge bit-for-bit. Incompatible with
	// Hierarchical.
	Corners []Corner
}

func (o Options) core() core.Options {
	opt := core.Options{
		Tolerance:           o.Tolerance,
		MergedName:          o.MergedName,
		MaxRefineIterations: o.MaxRefineIterations,
		Parallelism:         o.Parallelism,
		Corners:             o.Corners,
	}
	opt.STA.Workers = o.Workers
	if o.Cache != nil {
		opt.Cache = o.Cache.c
	}
	return opt
}

// coreFor additionally wires the design's block hierarchy into the
// merge options when Options.Hierarchical asks for it.
func (o Options) coreFor(d *Design) (core.Options, error) {
	opt := o.core()
	if o.Hierarchical {
		if d.hier == nil {
			return opt, fmt.Errorf("modemerge: Options.Hierarchical requires a design loaded with LoadHierDesign")
		}
		opt.Hierarchical = d.hier
	}
	return opt, nil
}

// Merge merges the modes (assumed mergeable; check with
// AnalyzeMergeability or use MergeAll) into one superset mode. It is
// one clique of MergeAll: it honours Options.Hierarchical and the
// clique level of Options.Cache, and a single mode passes through
// unchanged with an empty report. Cancelling ctx aborts the merge.
func Merge(ctx context.Context, d *Design, modes []*Mode, opt Options) (*Mode, *Report, error) {
	copt, err := opt.coreFor(d)
	if err != nil {
		return nil, nil, err
	}
	return core.MergeClique(ctx, d.graph, modes, copt)
}

// MergeAll analyzes pairwise mergeability, partitions the modes into
// merge cliques and merges each clique. It returns one merged mode and
// report per clique (singleton cliques pass the original mode through)
// plus the mergeability graph. Cancelling ctx aborts between and inside
// clique merges.
func MergeAll(ctx context.Context, d *Design, modes []*Mode, opt Options) ([]*Mode, []*Report, *Mergeability, error) {
	copt, err := opt.coreFor(d)
	if err != nil {
		return nil, nil, nil, err
	}
	return core.MergeAll(ctx, d.graph, modes, copt)
}

// AnalyzeMergeability runs only the pairwise mock-merge analysis and
// returns the mergeability graph, without merging anything.
func AnalyzeMergeability(d *Design, modes []*Mode, opt Options) (*Mergeability, error) {
	return core.AnalyzeMergeability(d.graph, modes, opt.core())
}

// FormatMergeability renders the mergeability graph and its merge
// cliques as human-readable text.
func FormatMergeability(mb *Mergeability, cliques [][]int) string {
	return core.FormatMergeability(mb, cliques)
}

// CheckEquivalence verifies the merged mode against its member modes on
// timing relationships: it must never relax any member (optimistic
// mismatches) and reports where it is merely tighter (pessimism,
// sign-off safe). Cancelling ctx aborts the comparison.
func CheckEquivalence(ctx context.Context, d *Design, individual []*Mode, merged *Mode, opt Options) (*EquivalenceResult, error) {
	return core.CheckEquivalence(ctx, d.graph, individual, merged, opt.core())
}
