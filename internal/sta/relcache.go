package sta

import (
	"sync"
	"sync/atomic"

	"modemerge/internal/graph"
	"modemerge/internal/relation"
)

// relCache memoizes the relation-query results of one context so the
// 3-pass refinement (and the equivalence checker) never re-derives the
// same propagation twice. Everything in here is derived state: it is
// computed lazily, idempotently, and only from the context's immutable
// analysis results, so concurrent queries may race benignly (both sides
// compute the same value; one store wins).
//
// It holds finished results only. Apart from the plain-tag propagation
// (ctx.tags(), which slack and trace read too), no propagation outlives
// the query that ran it:
//
//   - pass1/startEnd hold per-endpoint relation maps, keyed by node id.
//     A miss propagates only over fan-in cones: any propagation path from
//     a seed to a node of bwd(end) provably stays inside bwd(end) (an arc
//     x→n with n ∈ bwd(end) puts x ∈ bwd(end) too), so a cone-restricted
//     run leaves exactly the full run's tags at the endpoint, in the same
//     first-insertion order. A union of cones is backward-closed as well,
//     so FillStartEndRelations serves a whole batch of endpoints from one
//     transient propagation over the union with identical results.
//   - through memoizes per-(start,end) pass-3 slices, each computed from a
//     seeded cone propagation.
//   - liveBwd memoizes each endpoint's live backward reach, which the
//     through-relation walk reads.
//
// Callers must treat returned maps and slices as immutable.
type relCache struct {
	slotsOnce sync.Once
	// pass1/startEnd hold one atomic slot per graph node (only endpoint
	// slots are ever filled). Lock-free: loads and idempotent stores.
	pass1    []atomic.Pointer[map[RelKey]relation.Set]
	startEnd []atomic.Pointer[map[RelKey]relation.Set]
	through  sync.Map // [2]graph.NodeID{start,end} → []ThroughRel
	liveBwd  sync.Map // graph.NodeID end → []bool live backward reach

	tagsReady atomic.Bool // ctx.tags() full propagation forced

	hits, misses atomic.Int64
}

// relSlots lazily sizes the per-node memo slots.
func (ctx *Context) relSlots() *relCache {
	rc := &ctx.rel
	rc.slotsOnce.Do(func() {
		n := ctx.G.NumNodes()
		rc.pass1 = make([]atomic.Pointer[map[RelKey]relation.Set], n)
		rc.startEnd = make([]atomic.Pointer[map[RelKey]relation.Set], n)
	})
	return rc
}

// liveBwdMemo memoizes liveBackwardReach per endpoint: liveness depends
// only on disables and case constants, never on exceptions, so entries
// stay valid across exception-only rebuilds (and transfer with
// AdoptRelationResults).
func (ctx *Context) liveBwdMemo(end graph.NodeID) []bool {
	if ctx.Opt.DisableRelationMemo {
		return ctx.liveBackwardReach(end)
	}
	rc := &ctx.rel
	if v, ok := rc.liveBwd.Load(end); ok {
		return v.([]bool)
	}
	b := ctx.liveBackwardReach(end)
	rc.liveBwd.Store(end, b)
	return b
}

// WarmEndpointRelations forces the full (non-start-tracked) propagation
// that pass-1 queries read.
func (ctx *Context) WarmEndpointRelations() {
	ctx.tags()
}

// RelCacheStats returns the memo hit/miss counters (monotonic, atomic).
func (ctx *Context) RelCacheStats() (hits, misses int64) {
	return ctx.rel.hits.Load(), ctx.rel.misses.Load()
}

// EndpointRelationsAt computes (or recalls) the pass-1 relation map of a
// single endpoint. The returned map is shared and must not be mutated.
// When the full propagation has not been forced (WarmEndpointRelations),
// a miss is served by a propagation restricted to the endpoint's fan-in
// cone — identical tags at the endpoint, in identical insertion order
// (every propagation path into bwd(end) stays inside bwd(end)).
func (ctx *Context) EndpointRelationsAt(end graph.NodeID) map[RelKey]relation.Set {
	if ctx.Opt.DisableRelationMemo {
		out := map[RelKey]relation.Set{}
		ctx.accumulateRelations(out, end, ctx.tags()[end], "*")
		return out
	}
	rc := ctx.relSlots()
	if p := rc.pass1[end].Load(); p != nil {
		rc.hits.Add(1)
		return *p
	}
	out := make(map[RelKey]relation.Set, 16)
	if rc.tagsReady.Load() {
		ctx.accumulateRelations(out, end, ctx.dataTags[end], "*")
	} else {
		cone := ctx.G.BackwardReach([]graph.NodeID{end})
		tags := ctx.getTagArray()
		touched := ctx.propagateInto(propOpts{nodeFilter: cone}, tags)
		ctx.accumulateRelations(out, end, tags[end], "*")
		ctx.putTagArray(tags, touched)
	}
	rc.pass1[end].Store(&out)
	rc.misses.Add(1)
	return out
}

// MissingEndpointRelations counts the given endpoints without a memoized
// pass-1 relation map — the refinement's warm policy forces the full
// propagation only when the count is large enough to amortize it.
func (ctx *Context) MissingEndpointRelations(ends []graph.NodeID) int {
	if ctx.Opt.DisableRelationMemo {
		return len(ends)
	}
	rc := ctx.relSlots()
	n := 0
	for _, end := range ends {
		if rc.pass1[end].Load() == nil {
			n++
		}
	}
	return n
}

// AdoptRelationResults transfers memoized relation results from a
// previous context for the same graph into this one — the refinement
// loop's cross-iteration reuse. keepEnd selects the endpoints whose
// results are still valid (endpoints NOT forward-reachable from any
// newly added exception's pins: a new exception can only complete at an
// endpoint its pins reach, so relation results elsewhere are untouched
// by an exception-only rebuild). Live backward reaches transfer
// unconditionally — liveness never depends on exceptions.
//
// Results are name/state data with no reference to the source context's
// clock ids or exception vectors, so adopting them is a plain copy.
func (ctx *Context) AdoptRelationResults(prev *Context, keepEnd func(graph.NodeID) bool) {
	if prev == nil || prev.G != ctx.G ||
		ctx.Opt.DisableRelationMemo || prev.Opt.DisableRelationMemo {
		return
	}
	rc, prc := ctx.relSlots(), prev.relSlots()
	for i := range prc.pass1 {
		id := graph.NodeID(i)
		if !keepEnd(id) {
			continue
		}
		if p := prc.pass1[i].Load(); p != nil {
			rc.pass1[i].Store(p)
		}
		if p := prc.startEnd[i].Load(); p != nil {
			rc.startEnd[i].Store(p)
		}
	}
	prc.through.Range(func(k, v any) bool {
		if keepEnd(k.([2]graph.NodeID)[1]) {
			rc.through.Store(k, v)
		}
		return true
	})
	prc.liveBwd.Range(func(k, v any) bool {
		rc.liveBwd.Store(k, v)
		return true
	})
}
