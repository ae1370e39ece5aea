package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"modemerge/internal/graph"
	"modemerge/internal/incr"
	"modemerge/internal/library"
	"modemerge/internal/obs"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

// This file is the incremental re-merge engine's hook into the merging
// flow: every cacheable stage of Merge/MergeAll is expressed as a pure
// function from content-addressed inputs to a serializable output, and
// consults Options.Cache before computing. Three granularities exist
// (see internal/incr): per-mode sta contexts, pairwise mergeability
// verdicts, and whole-clique merge artifacts. Editing one mode of N
// re-runs only that mode's context build, its N−1 mock merges, and the
// cliques containing it; an unchanged re-merge is a pure cache replay.
// The difftest harness proves incremental results byte-identical to
// cold merges (PropIncremental).

// incrOptionsKey fingerprints every option that changes merge *results*.
// Parallelism, worker counts, hooks, tracing and the Slow debug knobs
// are excluded — the engine guarantees byte-identical output across
// those (see DESIGN.md), so results cached at one setting are valid at
// every other.
func (o Options) incrOptionsKey() string {
	o = o.withDefaults()
	return fmt.Sprintf("tol=%g|iters=%d|inject=%v/%v/%v/%v/%v|edges=%d|hier=%v|corners=%s",
		o.Tolerance, o.MaxRefineIterations,
		o.Inject.KeepSubsetExceptions, o.Inject.SkipClockRefinement, o.Inject.SkipDataRefinement,
		o.Inject.ETMKeepSubsetExceptions, o.Inject.MergeBestCornerOnly,
		o.STA.MaxLaunchEdges, o.Hierarchical != nil,
		library.CornerSetKey(o.Corners))
}

// contextCacheKey addresses one built per-mode analysis context. On top
// of the semantic identity (sta.FingerprintText) it pins the resolved
// worker count: a cached context keeps its internal pool size, and the
// Parallelism contract promises a fully sequential path at 1, so
// contexts are only shared between runs with equal worker settings.
func contextCacheKey(g *graph.Graph, modeText string, staOpt sta.Options, workers int) string {
	return incr.Hash(sta.FingerprintText(g, modeText, staOpt), "w", strconv.Itoa(workers))
}

// cachedContexts fills mg.ctxs from the cache where possible and builds
// the rest on the bounded pool, storing new builds back. Cached contexts
// are built without a trace span (they outlive any one tracer), so the
// per-merge build_contexts span reports hit/miss counters instead of
// per-scenario children. Returns the per-scenario errors array (first
// non-nil wins, as in the cold path). The scenario's corner is part of
// the sta fingerprint, so corner-keyed artifacts never collide with the
// corner-less (or other-corner) builds of the same mode text.
func (mg *Merger) cachedContexts(cx context.Context, cache *incr.Cache, sp *obs.Span, scen []*sdc.Mode) []error {
	errs := make([]error, len(scen))
	keys := make([]string, len(scen))
	var misses []int
	hits := int64(0)
	for i, m := range scen {
		staOpt := mg.scenarioStaOptions(i)
		staOpt.Span = nil // cached contexts must not reference this merge's tracer
		keys[i] = contextCacheKey(mg.g, sdc.Write(m), staOpt, staOpt.Workers)
		if v, ok := cache.GetObject(incr.GranContext, keys[i]); ok {
			mg.ctxs[i] = v.(*sta.Context)
			hits++
			continue
		}
		misses = append(misses, i)
	}
	forEachParallel(cx, len(misses), mg.opt.parallelism(), func(k int) {
		i := misses[k]
		staOpt := mg.scenarioStaOptions(i)
		staOpt.Span = nil
		ctx, err := sta.NewContext(mg.g, scen[i], staOpt)
		if err != nil {
			errs[i] = fmt.Errorf("mode %s: %w", mg.scenarioName(i), err)
			return
		}
		mg.ctxs[i] = ctx
	})
	for _, i := range misses {
		if mg.ctxs[i] != nil {
			cache.PutObject(incr.GranContext, keys[i], mg.ctxs[i])
		}
	}
	sp.Add("ctx_cache_hits", hits)
	sp.Add("ctx_cache_misses", int64(len(misses)))
	return errs
}

// pairVerdictKey addresses one mock-merge verdict. The mock merge reads
// only the two modes and the tolerance — no graph — so verdicts survive
// netlist edits and even transfer between designs sharing mode files.
func pairVerdictKey(tolerance float64, textA, textB string) string {
	return incr.Hash("mockmerge", fmt.Sprintf("%g", tolerance), textA, textB)
}

// Stored pair verdicts: one status byte then the reason ("" when
// mergeable), so an empty conflict reason is distinguishable from a
// cache miss.
const (
	pairMergeable = 'M'
	pairConflict  = 'C'
)

func encodePairVerdict(reason string) []byte {
	if reason == "" {
		return []byte{pairMergeable}
	}
	return append([]byte{pairConflict}, reason...)
}

func decodePairVerdict(b []byte) (reason string, ok bool) {
	if len(b) == 0 {
		return "", false
	}
	switch b[0] {
	case pairMergeable:
		return "", true
	case pairConflict:
		return string(b[1:]), true
	}
	return "", false
}

// cliqueArtifact is the serialized product of one clique merge: enough
// to reconstruct the merged mode (by re-parsing its canonical SDC
// against the design) and the full report, plus the member context
// stamps for integrity checking and explain surfaces.
//
// Re-parsing is lossy in exactly two places — the parser drops trailing
// `;#` comments (DisableTiming.Comment, ClockSense.Comment) and the
// Inferred marker the merger sets on its own disables — so those fields
// travel beside the SDC text and are re-attached positionally (statement
// order survives a Write/Parse round trip).
type cliqueArtifact struct {
	Name   string      `json:"name"`
	SDC    string      `json:"sdc"`
	Report *Report     `json:"report"`
	Stamps []sta.Stamp `json:"stamps,omitempty"`

	DisableComments []string `json:"disable_comments,omitempty"`
	DisableInferred []bool   `json:"disable_inferred,omitempty"`
	SenseComments   []string `json:"sense_comments,omitempty"`
}

// cliqueKey addresses one clique merge: design fingerprint, result-
// affecting options, merged-name override and the member modes' resolved
// SDC texts in clique order.
func cliqueKey(g *graph.Graph, opt Options, mergedName string, memberTexts []string) string {
	parts := make([]string, 0, len(memberTexts)+3)
	parts = append(parts, g.Fingerprint(), opt.incrOptionsKey(), "name="+mergedName)
	parts = append(parts, memberTexts...)
	return incr.Hash(parts...)
}

// CliqueKey is the exported content address of one clique merge, used by
// the distributed fabric to name clique jobs and their artifacts in a
// shared blob store. Two nodes computing CliqueKey over the same design,
// options and member modes agree on the key, which is what makes clique
// retries idempotent.
func CliqueKey(g *graph.Graph, opt Options, group []*sdc.Mode) string {
	memberTexts := make([]string, len(group))
	for i, m := range group {
		memberTexts[i] = sdc.Write(m)
	}
	return cliqueKey(g, opt, opt.MergedName, memberTexts)
}

// EncodeCliqueArtifact serializes a finished clique merge for transport
// or storage: the same wire format the incremental cache persists, so a
// worker's completion payload can be stored verbatim and later replayed
// by lookupClique on the coordinator.
func EncodeCliqueArtifact(merged *sdc.Mode, report *Report, stamps []sta.Stamp) ([]byte, error) {
	art := cliqueArtifact{
		Name:            merged.Name,
		SDC:             sdc.Write(merged),
		Report:          report,
		Stamps:          stamps,
		DisableComments: make([]string, len(merged.Disables)),
		DisableInferred: make([]bool, len(merged.Disables)),
		SenseComments:   make([]string, len(merged.ClockSenses)),
	}
	for i, d := range merged.Disables {
		art.DisableComments[i] = d.Comment
		art.DisableInferred[i] = d.Inferred
	}
	for i, s := range merged.ClockSenses {
		art.SenseComments[i] = s.Comment
	}
	return json.Marshal(art)
}

// DecodeCliqueArtifact reconstructs a merged mode + report from an
// EncodeCliqueArtifact payload by re-parsing the canonical SDC against
// the design and re-attaching the comment/inferred fields the parser
// drops (see cliqueArtifact). Decoding is the exact inverse the cache
// replay path uses, so a mode round-tripped through the wire is
// byte-identical to one merged locally. An artifact whose SDC is not
// the canonical text of the mode it parses to is rejected: only
// sdc.Write output round-trips, and the check keeps a corrupt or
// hostile payload from decoding to a mode that re-encodes differently.
func DecodeCliqueArtifact(b []byte, g *graph.Graph) (*sdc.Mode, *Report, error) {
	var art cliqueArtifact
	if err := json.Unmarshal(b, &art); err != nil {
		return nil, nil, fmt.Errorf("clique artifact: %w", err)
	}
	if art.Report == nil {
		return nil, nil, fmt.Errorf("clique artifact: missing report")
	}
	p := sdc.NewParser(art.Name, g.Design)
	// Canonical SDC invokes at most one command per byte of text, so this
	// budget never stops a real artifact and always stops a loop.
	p.Interp().MaxSteps = len(art.SDC) + 1
	if err := p.Eval(art.SDC); err != nil {
		return nil, nil, fmt.Errorf("clique artifact: re-parsing %q: %w", art.Name, err)
	}
	mode := p.Mode()
	if len(art.DisableComments) != len(mode.Disables) ||
		len(art.DisableInferred) != len(mode.Disables) ||
		len(art.SenseComments) != len(mode.ClockSenses) {
		return nil, nil, fmt.Errorf("clique artifact: field counts do not match re-parsed mode %q", art.Name)
	}
	for i, d := range mode.Disables {
		d.Comment = art.DisableComments[i]
		d.Inferred = art.DisableInferred[i]
	}
	for i, s := range mode.ClockSenses {
		s.Comment = art.SenseComments[i]
	}
	if sdc.Write(mode) != art.SDC {
		return nil, nil, fmt.Errorf("clique artifact: SDC of %q is not in canonical form", art.Name)
	}
	return mode, art.Report, nil
}

// lookupClique returns the cached merged mode + report for the key, or
// ok=false. A stored artifact that no longer parses against the design
// (impossible under content addressing, but cheap to guard) is treated
// as a miss.
func lookupClique(cache *incr.Cache, key string, g *graph.Graph) (*sdc.Mode, *Report, bool) {
	b, ok := cache.GetBytes(incr.GranClique, key)
	if !ok {
		return nil, nil, false
	}
	mode, report, err := DecodeCliqueArtifact(b, g)
	if err != nil {
		return nil, nil, false
	}
	return mode, report, true
}

// storeClique serializes one finished clique merge into the cache.
func storeClique(cache *incr.Cache, key string, merged *sdc.Mode, report *Report, stamps []sta.Stamp) {
	b, err := EncodeCliqueArtifact(merged, report, stamps)
	if err != nil {
		return // unserializable report: skip caching, never fail the merge
	}
	cache.PutBytes(incr.GranClique, key, b)
}

// stamps collects the member contexts' stamps for artifact metadata.
func (mg *Merger) stamps() []sta.Stamp {
	out := make([]sta.Stamp, len(mg.ctxs))
	for i, c := range mg.ctxs {
		out[i] = c.Stamp()
	}
	return out
}
