// Package core implements the paper's contribution: automated timing-graph
// based mode merging. N mergeable SDC modes are reduced to one superset
// mode in two phases — preliminary mode merging (§3.1: clock union,
// tolerance-based clock-constraint merge, external-delay union,
// case/disable intersection, inferred clock exclusivity, clock refinement,
// exception intersection and uniquification) and refinement of the
// preliminary merged mode (§3.2: data-network clock blocking plus the
// 3-pass timing-relationship comparison that inserts corrective false
// paths). Mergeability analysis groups arbitrary mode sets into merge
// cliques (Figure 2), and an equivalence checker validates the result.
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"modemerge/internal/graph"
	"modemerge/internal/incr"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/obs"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

// Options tunes the merging flow.
type Options struct {
	// Tolerance is the relative tolerance for merging clock-based and
	// drive/load constraint values across modes (§3.1.2). Values within
	// the tolerance merge to min-of-mins / max-of-maxes; beyond it the
	// modes are non-mergeable. Default 0.05.
	Tolerance float64
	// MergedName names the merged mode; default joins the input names
	// with "+".
	MergedName string
	// MaxRefineIterations bounds the refine→validate loop. Default 4.
	MaxRefineIterations int
	// Parallelism bounds the intra-merge worker pools: per-mode context
	// builds, the per-context relation fills, the per-endpoint and
	// per-pair relation queries and the pairwise mergeability analysis.
	// 0 means GOMAXPROCS; 1 forces the fully sequential path. Workers
	// write index-addressed results that are reduced in a fixed order,
	// so the merged SDC, provenance and explain output are
	// byte-identical for every setting (see DESIGN.md).
	Parallelism int
	// STA carries analysis options (worker count etc.).
	STA sta.Options
	// StageHook, when set, receives the wall time of each completed flow
	// stage ("mergeability", "prelim", "clock_refine", "data_refine").
	// Hooks must be cheap and safe for serial calls from the merging
	// goroutine.
	StageHook func(stage string, d time.Duration)
	// Trace, when set, is the parent span under which the flow records
	// one child span per stage (and sub-stage) with wall time, heap
	// allocation delta and domain counters. Nil disables tracing at
	// near-zero cost.
	Trace *obs.Span
	// Inject deliberately breaks parts of the flow. Production callers
	// leave it zero; the differential fuzzing harness (internal/difftest)
	// uses it to prove its oracles catch real merge bugs.
	Inject FaultInjection
	// Cache, when set, is the incremental re-merge engine's sub-merge
	// cache: per-mode analysis contexts, pairwise mergeability verdicts
	// and whole-clique merge artifacts are looked up by content address
	// before being computed and stored back after. Results are proven
	// byte-identical to cold merges by the difftest incremental oracle.
	// Nil disables incremental reuse.
	Cache *incr.Cache
	// Slow disables individual data-refinement optimizations, forcing the
	// pre-optimization slow paths. Results are byte-identical with any
	// combination (enforced by refine_equiv_test.go), so these knobs are
	// excluded from the incremental cache key like Parallelism; they
	// exist for equivalence tests and for bisecting perf regressions.
	Slow SlowPaths
	// Corners, when non-empty, turns the merge into an MCMM scenario-
	// matrix merge: every mode is analyzed once per corner (the corner's
	// SDC overlay appended to the mode text, its derates applied to the
	// delay calculation), and mergeability, clock refinement and data
	// refinement require justification across ALL #modes × #corners
	// scenarios — the across-corner worst case. The merged mode itself
	// stays corner-less: deploying it in corner c means appending that
	// corner's overlay, exactly as for the member modes. Empty means the
	// historical corner-less merge, bit-for-bit. Incompatible with
	// Hierarchical.
	Corners []library.Corner
	// Hierarchical, when set, routes every multi-mode clique through the
	// extracted-timing-model merge (internal/etm): flat preliminary merge
	// and clock refinement, then per-block data refinement on the block
	// masters with projected member modes, plus an abstract-top merge,
	// instead of whole-design data refinement. The hierarchical design's
	// flattened form must be the design the graph was built from. Results
	// are relation-equivalent to (never more optimistic than) the flat
	// merge; see the difftest hierarchical oracle.
	Hierarchical *netlist.HierDesign
}

// SlowPaths selects data-refinement optimizations to disable (debug
// knobs; see Options.Slow). Each knob guards a layer whose saving is
// measured end to end (EXPERIMENTS.md, Ablation 4).
type SlowPaths struct {
	// NoRelationCache disables the per-context relation memo and the
	// batched start–end fill (sta.Options.DisableRelationMemo): every
	// pass-2/3 query re-propagates its endpoint cone.
	NoRelationCache bool
	// NoCacheTransfer drops all memoized merged-context relation results
	// and recorded pass outcomes on every refinement rebuild instead of
	// invalidating only endpoints reachable from the newly added
	// exceptions.
	NoCacheTransfer bool
}

// FaultInjection selects deliberate merge bugs for differential testing.
type FaultInjection struct {
	// KeepSubsetExceptions skips §3.1.9/§3.1.10 entirely: an exception
	// present in only a subset of the modes joins the merged mode
	// unconditionally (the naive textual-union bug). The merged mode then
	// relaxes paths that other modes time — an optimistic, sign-off unsafe
	// merge that CheckEquivalence must flag.
	KeepSubsetExceptions bool
	// SkipClockRefinement skips §3.1.8 (clock stop insertion).
	SkipClockRefinement bool
	// SkipDataRefinement skips §3.2 (launch blocking + 3-pass fixes).
	SkipDataRefinement bool
	// ETMKeepSubsetExceptions breaks the hierarchical merge only: block
	// merges run with KeepSubsetExceptions and the harvest keeps every
	// block-merged exception instead of just the refinement tail, so
	// subset-only member relaxations leak into the stitched mode — an
	// optimistic merge the hierarchical oracle must flag.
	ETMKeepSubsetExceptions bool
	// MergeBestCornerOnly breaks the scenario-matrix merge: only the
	// first corner's scenarios are built and refined, so a path that is
	// false in corner 0 but timed in corner 1 gets a corrective false
	// path the corner-1 deployment must not have — optimism in every
	// corner but the first, caught by the corner-conformity oracle. A
	// no-op on corner-less (or single-corner) merges, like the ETM fault
	// on flat merges.
	MergeBestCornerOnly bool
}

// Any reports whether any fault is enabled.
func (f FaultInjection) Any() bool {
	return f.KeepSubsetExceptions || f.SkipClockRefinement || f.SkipDataRefinement ||
		f.ETMKeepSubsetExceptions || f.MergeBestCornerOnly
}

// stage times one flow stage and reports it to the hook.
func (o Options) stage(name string) func() {
	if o.StageHook == nil {
		return func() {}
	}
	start := time.Now()
	return func() { o.StageHook(name, time.Since(start)) }
}

// parallelism resolves Options.Parallelism (0 → GOMAXPROCS).
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) withDefaults() Options {
	if o.Tolerance <= 0 {
		o.Tolerance = 0.05
	}
	if o.MaxRefineIterations <= 0 {
		o.MaxRefineIterations = 4
	}
	return o
}

// Report summarizes one merge run.
type Report struct {
	// Preliminary merging counters.
	MergedClocks         int
	RenamedClocks        int
	DroppedCases         int
	TranslatedCases      int // always-cased conflicting objects → disables
	DroppedExceptions    int
	UniquifiedExceptions int
	ExclusivePairs       int
	// Refinement counters.
	ClockStops      int // set_clock_sense -stop_propagation added
	LaunchBlocks    int // data-refinement false paths added
	Pass1Mismatch   int
	Pass1Ambiguous  int
	Pass2Mismatch   int
	Pass2Ambiguous  int
	Pass3Mismatch   int
	AddedFalsePaths int
	// Hierarchical (ETM) merge counters.
	HierBlocksMerged    int // block instances whose refinement was harvested
	HierBlocksSkipped   int // blocks skipped (combinationally re-entrant)
	HarvestedExceptions int // sub-merge exceptions stitched into the merged mode
	// Validation.
	Iterations        int
	PessimisticGroups int // merged tighter than needed (sign-off safe)
	ResidualMismatch  int // should be zero
	// Corners lists the corner names of a scenario-matrix merge in
	// analysis order (empty for corner-less merges); the per-corner
	// provenance records reference these names.
	Corners  []string
	Warnings []string
	// Provenance explains, one record per constraint decision, why the
	// merged mode contains (or lacks) each inserted, dropped, renamed or
	// uniquified constraint — the raw material of the explain report.
	Provenance []obs.Provenance
}

func (r *Report) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

func (r *Report) prov(p obs.Provenance) {
	r.Provenance = append(r.Provenance, p)
}

// Explain packages the report's provenance as an explain report for the
// named merged mode.
func (r *Report) Explain(merged string) *obs.Explain {
	return &obs.Explain{Merged: merged, Records: r.Provenance}
}

// clockMap tracks the mapping between individual-mode clocks and merged
// clocks.
type clockMap struct {
	// toMerged[m][localName] = merged name.
	toMerged []map[string]string
	// members[mergedName][m] = local name ("" if the clock does not exist
	// in mode m).
	members map[string][]string
	// order of merged clock names.
	order []string
}

func newClockMap(nModes int) *clockMap {
	return &clockMap{
		toMerged: make([]map[string]string, nModes),
		members:  map[string][]string{},
	}
}

// modeIndex reduces a flattened scenario index to its base-mode index.
// The map is built over the n base modes, but corner-aware merges index
// it by scenario (mode m of corner c at c·n+m); corner overlays never
// add or rename clocks, so scenario c·n+m shares mode m's clock names.
func (cm *clockMap) modeIndex(m int) int { return m % len(cm.toMerged) }

// mapName maps a local clock name of mode m to the merged namespace; names
// with no mapping (e.g. already-merged names) pass through.
func (cm *clockMap) mapName(m int, local string) string {
	if mapped, ok := cm.toMerged[cm.modeIndex(m)][local]; ok {
		return mapped
	}
	return local
}

// existsIn reports whether the merged clock exists in mode m.
func (cm *clockMap) existsIn(merged string, m int) bool {
	mem, ok := cm.members[merged]
	return ok && mem[cm.modeIndex(m)] != ""
}

// localName returns mode m's local name for a merged clock ("" if absent).
func (cm *clockMap) localName(merged string, m int) string {
	if mem, ok := cm.members[merged]; ok {
		return mem[cm.modeIndex(m)]
	}
	return ""
}

// Merger drives one merge of a group of modes on one design.
type Merger struct {
	design *netlist.Design
	g      *graph.Graph
	modes  []*sdc.Mode
	opt    Options

	// corners is the effective corner set (opt.Corners after fault
	// gating); empty for corner-less merges. With C corners, ctxs holds
	// the #modes × C scenario contexts flattened mode-major: scenario
	// c·n+m is mode m analyzed in corner c. The refinement loops iterate
	// ctxs, so "justified in some mode" / "false in every mode" become
	// per-scenario — the across-corner worst case — without any further
	// changes. Corner-less merges keep ctxs ≡ one context per mode.
	corners []library.Corner

	merged *sdc.Mode
	cmap   *clockMap
	ctxs   []*sta.Context // per scenario (mode × corner); per mode when corner-less
	mctx   *sta.Context   // merged (rebuilt after constraint additions)

	// span is the parent for this merge's stage spans (opt.Trace; nil
	// disables tracing).
	span *obs.Span

	// memo carries the data-refinement pass outcomes and pending
	// exception tracking across refinement iterations (see refine.go).
	memo refineMemo
	// ids numbers the merged clocks for the §3.2 comparison; threePass
	// builds it (see clockIDs).
	ids *clockIDs
	// excKeys indexes the merged mode's exceptions for addFalsePath.
	excKeys excKeys

	Report *Report
}

// NewMerger prepares a merge of the given modes. The graph is built once
// and shared. Cancelling cx aborts between per-mode context builds.
func NewMerger(cx context.Context, design *netlist.Design, modes []*sdc.Mode, opt Options) (*Merger, error) {
	if len(modes) == 0 {
		return nil, fmt.Errorf("core: no modes to merge")
	}
	g, err := graph.Build(design)
	if err != nil {
		return nil, err
	}
	return newMergerWithGraph(cx, g, modes, opt)
}

func newMergerWithGraph(cx context.Context, g *graph.Graph, modes []*sdc.Mode, opt Options) (*Merger, error) {
	opt = opt.withDefaults()
	corners := opt.Corners
	if len(corners) > 0 {
		if opt.Hierarchical != nil {
			return nil, fmt.Errorf("core: corner-aware merging does not support hierarchical merge")
		}
		if err := library.ValidateCorners(corners); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		// Injected bug: refine the matrix as if only the first corner
		// existed. Paths excluded in corner 0 but timed elsewhere then
		// pick up corrective false paths that are optimistic in every
		// other corner — the corner-conformity oracle's target.
		if opt.Inject.MergeBestCornerOnly && len(corners) > 1 {
			corners = corners[:1]
		}
	}
	name := opt.MergedName
	if name == "" {
		for i, m := range modes {
			if i > 0 {
				name += "+"
			}
			name += m.Name
		}
	}
	mg := &Merger{
		design:  g.Design,
		g:       g,
		modes:   modes,
		opt:     opt,
		corners: corners,
		merged:  &sdc.Mode{Name: name},
		cmap:    newClockMap(len(modes)),
		span:    opt.Trace,
		Report:  &Report{},
	}
	mg.span.SetAttr("merged_mode", name)
	scen, err := mg.scenarioModes()
	if err != nil {
		return nil, err
	}
	// Per-scenario contexts build on the bounded pool: each scenario is
	// an independent analysis, and the results land in index order so the
	// first failing scenario (lowest index) wins deterministically. With
	// an incremental cache, previously built contexts are reused by
	// content address and only the missing ones are built (see
	// incremental.go).
	sp := mg.span.Child("build_contexts")
	sp.Add("modes", int64(len(modes)))
	if len(corners) > 0 {
		sp.Add("corners", int64(len(corners)))
		sp.Add("scenarios", int64(len(scen)))
	}
	mg.ctxs = make([]*sta.Context, len(scen))
	var errs []error
	if opt.Cache != nil {
		errs = mg.cachedContexts(cx, opt.Cache, sp, scen)
	} else {
		errs = make([]error, len(scen))
		forEachParallel(cx, len(scen), opt.parallelism(), func(i int) {
			ctx, err := sta.NewContext(g, scen[i], mg.scenarioStaOptions(i))
			if err != nil {
				errs[i] = fmt.Errorf("mode %s: %w", mg.scenarioName(i), err)
				return
			}
			mg.ctxs[i] = ctx
		})
	}
	sp.Finish()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := cx.Err(); err != nil {
		return nil, err
	}
	mg.recordCornerProvenance()
	return mg, nil
}

// scenarioModes renders the #modes × #corners scenario matrix as a flat
// mode list, corner-major: scenario c·n+m is mode m under corner c's SDC
// overlay. Corner-less merges return the base modes unchanged — the same
// objects, so the historical path is untouched. Corners with an empty
// overlay reuse the base mode objects too (the corner still differs via
// its derates, applied through sta.Options.Corner).
func (mg *Merger) scenarioModes() ([]*sdc.Mode, error) {
	if len(mg.corners) == 0 {
		return mg.modes, nil
	}
	scen := make([]*sdc.Mode, 0, len(mg.modes)*len(mg.corners))
	for c := range mg.corners {
		crn := &mg.corners[c]
		for _, m := range mg.modes {
			if crn.SDC == "" {
				scen = append(scen, m)
				continue
			}
			eff, err := applyCornerOverlay(mg.design, m, crn)
			if err != nil {
				return nil, err
			}
			scen = append(scen, eff)
		}
	}
	return scen, nil
}

// applyCornerOverlay appends a corner's SDC overlay to a mode and parses
// the result. Overlays refine the environment of existing clocks and
// ports; creating clocks would break the scenario↔mode clock-name
// correspondence the merge relies on, so that is rejected here.
func applyCornerOverlay(d *netlist.Design, m *sdc.Mode, crn *library.Corner) (*sdc.Mode, error) {
	eff, _, err := sdc.Parse(m.Name, crn.Deploy(sdc.Write(m)), d)
	if err != nil {
		return nil, fmt.Errorf("corner %s overlay on mode %s: %w", crn.Name, m.Name, err)
	}
	if len(eff.Clocks) != len(m.Clocks) {
		return nil, fmt.Errorf("corner %s overlay on mode %s: overlays must not create clocks", crn.Name, m.Name)
	}
	return eff, nil
}

// scenarioCorner returns the corner a flattened scenario index belongs
// to; nil on the corner-less path.
func (mg *Merger) scenarioCorner(s int) *library.Corner {
	if len(mg.corners) == 0 {
		return nil
	}
	return &mg.corners[s/len(mg.modes)]
}

// scenarioName names a scenario for errors and provenance: the mode name
// alone on the corner-less path, "mode@corner" otherwise.
func (mg *Merger) scenarioName(s int) string {
	name := mg.modes[s%len(mg.modes)].Name
	if c := mg.scenarioCorner(s); c != nil {
		name += "@" + c.Name
	}
	return name
}

// scenarioStaOptions is staOptions with the scenario's corner selected.
func (mg *Merger) scenarioStaOptions(s int) sta.Options {
	o := mg.staOptions()
	o.Corner = mg.scenarioCorner(s)
	return o
}

// recordCornerProvenance emits one provenance record per corner of a
// scenario-matrix merge, naming the scenarios that corner contributed to
// the refinement evidence — the per-corner half of the explain report.
func (mg *Merger) recordCornerProvenance() {
	if len(mg.corners) == 0 {
		return
	}
	n := len(mg.modes)
	for c := range mg.corners {
		crn := &mg.corners[c]
		scens := make([]string, n)
		for m := 0; m < n; m++ {
			scens[m] = mg.scenarioName(c*n + m)
		}
		mg.Report.Corners = append(mg.Report.Corners, crn.Name)
		mg.Report.prov(obs.Provenance{
			Stage:      "corners/scenario_matrix",
			Rule:       "MCMM scenario matrix",
			Action:     obs.ActionKeep,
			Constraint: fmt.Sprintf("corner %s", crn.Name),
			Modes:      scens,
			Detail: fmt.Sprintf(
				"delay×%g early×%g late×%g margin×%g, overlay %d bytes; refinement requires justification across every corner's scenarios",
				crn.DelayFactor(), crn.EarlyFactor(), crn.LateFactor(),
				crn.MarginFactor(), len(crn.SDC)),
		})
	}
}

// staOptions wires the merge's trace parent into the analysis contexts so
// the heavy sta loops report their own spans, and propagates the merge
// parallelism into the sta worker pools unless the caller pinned its own
// worker count.
func (mg *Merger) staOptions() sta.Options {
	o := mg.opt.STA
	if o.Workers <= 0 {
		o.Workers = mg.opt.parallelism()
	}
	o.Span = mg.span
	if mg.opt.Slow.NoRelationCache {
		o.DisableRelationMemo = true
	}
	return o
}

// Merge runs the full flow and returns the merged mode. Cancelling cx
// aborts promptly between stages and inside the parallel refinement
// loops, returning the context error.
func (mg *Merger) Merge(cx context.Context) (*sdc.Mode, error) {
	sp := mg.span.Child("prelim")
	done := mg.opt.stage("prelim")
	if err := mg.preliminary(sp); err != nil {
		sp.Finish()
		return nil, err
	}
	if err := mg.rebuildMerged(); err != nil {
		sp.Finish()
		return nil, err
	}
	sp.Add("clocks_merged", int64(mg.Report.MergedClocks))
	sp.Add("clocks_renamed", int64(mg.Report.RenamedClocks))
	sp.Add("cases_dropped", int64(mg.Report.DroppedCases))
	sp.Add("cases_translated", int64(mg.Report.TranslatedCases))
	sp.Add("exceptions_dropped", int64(mg.Report.DroppedExceptions))
	sp.Add("exceptions_uniquified", int64(mg.Report.UniquifiedExceptions))
	sp.Add("exclusive_pairs", int64(mg.Report.ExclusivePairs))
	sp.Finish()
	done()
	if err := cx.Err(); err != nil {
		return nil, err
	}
	if !mg.opt.Inject.SkipClockRefinement {
		sp = mg.span.Child("clock_refine")
		done = mg.opt.stage("clock_refine")
		if err := mg.clockRefinement(); err != nil {
			sp.Finish()
			return nil, err
		}
		sp.Add("sense_stops", int64(mg.Report.ClockStops))
		sp.Finish()
		done()
	}
	if err := cx.Err(); err != nil {
		return nil, err
	}
	if !mg.opt.Inject.SkipDataRefinement {
		sp = mg.span.Child("data_refine")
		done = mg.opt.stage("data_refine")
		if err := mg.dataRefinement(cx, sp); err != nil {
			sp.Finish()
			return nil, err
		}
		sp.Add("launch_blocks", int64(mg.Report.LaunchBlocks))
		sp.Add("false_paths_added", int64(mg.Report.AddedFalsePaths))
		sp.Add("iterations", int64(mg.Report.Iterations))
		sp.Finish()
		done()
	}
	return mg.merged, nil
}

// Merged returns the merged mode built so far.
func (mg *Merger) Merged() *sdc.Mode { return mg.merged }

// rebuildMerged re-resolves the merged mode against the graph after
// constraints were added. With an incremental cache, the merged context
// is looked up (and stored) by content address like the member contexts,
// so warm re-merges and equivalence checks of a previously seen merged
// mode skip the context rebuild entirely.
func (mg *Merger) rebuildMerged() error { return mg.rebuildMergedFrom(nil) }

// rebuildMergedExcOnly is rebuildMerged for callers that changed nothing
// but timing exceptions (the data-refinement loop: launch blocking and
// per-iteration corrective false paths). A context it has to build is
// derived from the previous one, sharing every exception-independent
// analysis result and recompiling only the exception set; with an
// incremental cache that happens on a merged-context miss, and the
// derived context is stored. The NoCacheTransfer equivalence knob falls
// back to the full rebuild so the slow path exercises a from-scratch
// build.
func (mg *Merger) rebuildMergedExcOnly() error {
	if mg.mctx == nil || mg.opt.Slow.NoCacheTransfer {
		return mg.rebuildMerged()
	}
	return mg.rebuildMergedFrom(mg.mctx)
}

// rebuildMergedFrom builds the merged context with sta.NewContext, or,
// when prev is set, with sta.DeriveExceptionsOnly from prev.
func (mg *Merger) rebuildMergedFrom(prev *sta.Context) error {
	sp := mg.span.Child("rebuild_merged")
	defer sp.Finish()
	mode, staOpt := mg.merged, mg.staOptions()
	var key string // set when the new context goes into the cache
	if c := mg.opt.Cache; c != nil {
		cachedOpt := staOpt
		cachedOpt.Span = nil // cached contexts must not reference this merge's tracer
		text := sdc.Write(mg.merged)
		k := contextCacheKey(mg.g, text, cachedOpt, cachedOpt.Workers)
		if v, ok := c.GetObject(incr.GranMergedCtx, k); ok {
			mg.mctx = v.(*sta.Context)
			sp.Add("ctx_cache_hits", 1)
			return nil
		}
		// mg.merged keeps mutating as refinement appends exceptions, so a
		// cached context is built from a parsed snapshot of the current
		// text (the same Write→Parse round trip the clique artifact
		// relies on) instead of aliasing the live mode.
		if snap, _, err := sdc.Parse(mg.merged.Name, text, mg.design); err == nil {
			mode, staOpt, key = snap, cachedOpt, k
		}
	}
	if prev != nil {
		sp.Add("exc_only_derives", 1)
		mg.mctx = sta.DeriveExceptionsOnly(prev, mode, staOpt)
	} else {
		ctx, err := sta.NewContext(mg.g, mode, staOpt)
		if err != nil {
			return fmt.Errorf("merged mode %s: %w", mg.merged.Name, err)
		}
		mg.mctx = ctx
	}
	if key != "" {
		mg.opt.Cache.PutObject(incr.GranMergedCtx, key, mg.mctx)
		sp.Add("ctx_cache_misses", 1)
	}
	return nil
}

// Merge is the package-level convenience: merge one group of modes.
// Cancelling cx aborts the flow promptly with the context error.
func Merge(cx context.Context, design *netlist.Design, modes []*sdc.Mode, opt Options) (*sdc.Mode, *Report, error) {
	mg, err := NewMerger(cx, design, modes, opt)
	if err != nil {
		return nil, nil, err
	}
	merged, err := mg.Merge(cx)
	if err != nil {
		return nil, mg.Report, err
	}
	return merged, mg.Report, nil
}
