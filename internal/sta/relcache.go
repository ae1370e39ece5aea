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
// It holds finished results only; no propagation outlives the query that
// ran it (a Context keeps no data tags at all):
//
//   - pass1/startEnd hold per-endpoint relation maps, keyed by node id,
//     filled by fillRelations. A fill propagates only over the union of
//     the queried endpoints' fan-in cones: any propagation path from a
//     seed to a node of bwd(end) provably stays inside bwd(end) (an arc
//     x→n with n ∈ bwd(end) puts x ∈ bwd(end) too), so a union of cones
//     is backward-closed and a cone-restricted run leaves exactly the full
//     run's tags at each of its endpoints, in the same first-insertion
//     order. The same argument lets TraceWorstArrival walk one
//     endpoint's cone run. A memo miss is a one-endpoint fill.
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

// slots returns the memo slots of pass 1 or, startTracked, pass 2.
func (rc *relCache) slots(startTracked bool) []atomic.Pointer[map[RelKey]relation.Set] {
	if startTracked {
		return rc.startEnd
	}
	return rc.pass1
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

// RelCacheStats returns the memo hit/miss counters (monotonic, atomic).
func (ctx *Context) RelCacheStats() (hits, misses int64) {
	return ctx.rel.hits.Load(), ctx.rel.misses.Load()
}

// EndpointRelationsAt returns the pass-1 relation map of one endpoint:
// its path groups at endpoint granularity (Start "*"). A memo miss is a
// one-endpoint FillEndpointRelations; callers querying many endpoints
// fill them as one batch first. DisableRelationMemo recomputes the map on
// every call from a propagation restricted to the endpoint's fan-in cone.
// The returned map is shared and must not be mutated.
func (ctx *Context) EndpointRelationsAt(end graph.NodeID) map[RelKey]relation.Set {
	return ctx.relationsAt(end, false)
}

// StartEndRelations returns the pass-2 relation map of one endpoint: its
// path groups keyed by concrete startpoint. A memo miss is a
// one-endpoint FillStartEndRelations. DisableRelationMemo recomputes the
// map on every call from a propagation restricted to the endpoint's
// fan-in cone. The returned map is shared and must not be mutated.
func (ctx *Context) StartEndRelations(end graph.NodeID) map[RelKey]relation.Set {
	return ctx.relationsAt(end, true)
}

// relationsAt recalls one endpoint's memoized map, filling it on a miss;
// under DisableRelationMemo it computes the map afresh.
func (ctx *Context) relationsAt(end graph.NodeID, startTracked bool) map[RelKey]relation.Set {
	if ctx.Opt.DisableRelationMemo {
		return ctx.relationMaps([]graph.NodeID{end}, startTracked)[0]
	}
	rc := ctx.relSlots()
	slot := &rc.slots(startTracked)[end]
	if p := slot.Load(); p != nil {
		rc.hits.Add(1)
		return *p
	}
	ctx.fillRelations([]graph.NodeID{end}, startTracked)
	return *slot.Load()
}

// FillEndpointRelations memoizes the pass-1 relation maps of every given
// endpoint that has none yet (see fillRelations).
func (ctx *Context) FillEndpointRelations(ends []graph.NodeID) { ctx.fillRelations(ends, false) }

// FillStartEndRelations memoizes the pass-2 relation maps of every given
// endpoint that has none yet (see fillRelations).
func (ctx *Context) FillStartEndRelations(ends []graph.NodeID) { ctx.fillRelations(ends, true) }

// fillRelations memoizes the relation maps of every given endpoint whose
// slot is still empty, from one transient propagation over the union of
// their fan-in cones; each node is visited once however many cones share
// it, and nothing but the finished maps is kept. Under
// DisableRelationMemo it is a no-op.
func (ctx *Context) fillRelations(ends []graph.NodeID, startTracked bool) {
	if ctx.Opt.DisableRelationMemo {
		return
	}
	rc := ctx.relSlots()
	slots := rc.slots(startTracked)
	var missing []graph.NodeID
	for _, end := range ends {
		if slots[end].Load() == nil {
			missing = append(missing, end)
		}
	}
	if len(missing) == 0 {
		return
	}
	for i, out := range ctx.relationMaps(missing, startTracked) {
		slots[missing[i]].Store(&out)
	}
	rc.misses.Add(int64(len(missing)))
}

// relationMaps computes the relation maps of the given endpoints from one
// propagation (start-tracked for pass 2) over the union of their cones.
func (ctx *Context) relationMaps(ends []graph.NodeID, startTracked bool) []map[RelKey]relation.Set {
	tags, release := ctx.propagate(propOpts{withStart: startTracked, nodeFilter: ctx.G.BackwardReach(ends)})
	defer release()
	label := "*"
	if startTracked {
		label = ""
	}
	out := make([]map[RelKey]relation.Set, len(ends))
	for i, end := range ends {
		out[i] = map[RelKey]relation.Set{}
		ctx.accumulateRelations(out[i], end, tags[end], label)
	}
	return out
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
