package sta

import (
	"slices"
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
//   - profile/liveBwd memoize per-pair live-path structure for the pass-3
//     reconvergence prune (see PairProfile).
//
// Callers must treat returned maps and slices as immutable.
type relCache struct {
	slotsOnce sync.Once
	// pass1/startEnd hold one atomic slot per graph node (only endpoint
	// slots are ever filled). Lock-free: loads and idempotent stores.
	pass1    []atomic.Pointer[map[RelKey]relation.Set]
	startEnd []atomic.Pointer[map[RelKey]relation.Set]
	through  sync.Map // [2]graph.NodeID{start,end} → []ThroughRel
	profile  sync.Map // [2]graph.NodeID{start,end} → PairProfile
	liveBwd  sync.Map // graph.NodeID end → []bool live backward reach

	tagsReady atomic.Bool // ctx.tags() full propagation forced

	topoOnce sync.Once
	topoIdx  []int32

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

// topoIndex returns each node's position in the topological order
// (lazy, shared).
func (ctx *Context) topoIndex() []int32 {
	rc := &ctx.rel
	rc.topoOnce.Do(func() {
		idx := make([]int32, ctx.G.NumNodes())
		for i, n := range ctx.G.Topo() {
			idx[n] = int32(i)
		}
		rc.topoIdx = idx
	})
	return rc.topoIdx
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

// PairProfile summarizes the live path structure between a startpoint and
// an endpoint: whether any live path exists, whether the live cone
// diverges anywhere (more than one live route), and a hash of the live
// cone's node set. Pass 3 uses it to skip pairs that provably cannot
// need a through-point fix: when every context's live cone is
// divergence-free and all contexts with a live path share the same cone,
// every interior node sees exactly the pass-2 path set, so pass 3 can
// only repeat pass 2's ambiguity and emit nothing.
type PairProfile struct {
	// HasLive: at least one live start→end path exists in this context.
	HasLive bool
	// Divergent: some live node has two or more live out-arcs inside the
	// live cone.
	Divergent bool
	// LiveHash fingerprints the live cone's node-id set (FNV-1a over ids
	// in topological order). Only meaningful when HasLive.
	LiveHash uint64
}

// PairProfile computes (or recalls) the live-path profile for one pair.
// Liveness depends only on disables and case constants — never on timing
// exceptions — so profiles stay valid across exception-only rebuilds.
func (ctx *Context) PairProfile(start, end graph.NodeID) PairProfile {
	rc := &ctx.rel
	key := [2]graph.NodeID{start, end}
	if v, ok := rc.profile.Load(key); ok {
		return v.(PairProfile)
	}
	p := ctx.pairProfile(start, end)
	rc.profile.Store(key, p)
	return p
}

func (ctx *Context) pairProfile(start, end graph.NodeID) PairProfile {
	g := ctx.G
	if ctx.NodeDisabled[start] || ctx.Consts[start].Known() {
		return PairProfile{}
	}
	bwd := ctx.liveBwdMemo(end)
	if !bwd[start] {
		return PairProfile{}
	}
	// Live forward reach from the startpoint, mirroring propagation's arc
	// rules: disabled arcs block, launch arcs leave only the startpoint
	// itself, disabled and case-constant nodes block. The walk is bounded
	// by bwd(end): any live forward path to a node of bwd(end) stays
	// inside bwd(end), so restricting the DFS marks exactly the live cone
	// fwd ∩ bwd.
	live := make([]bool, g.NumNodes())
	live[start] = true
	liveNodes := []graph.NodeID{start}
	stack := []graph.NodeID{start}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ai := range g.OutArcs(id) {
			if ctx.ArcDisabled[ai] {
				continue
			}
			a := g.Arc(ai)
			if a.Kind == graph.LaunchArc && id != start {
				continue
			}
			if live[a.To] || !bwd[a.To] || ctx.NodeDisabled[a.To] || ctx.Consts[a.To].Known() {
				continue
			}
			live[a.To] = true
			liveNodes = append(liveNodes, a.To)
			stack = append(stack, a.To)
		}
	}
	if !live[end] {
		return PairProfile{}
	}
	topoIdx := ctx.topoIndex()
	slices.SortFunc(liveNodes, func(a, b graph.NodeID) int { return int(topoIdx[a]) - int(topoIdx[b]) })
	prof := PairProfile{HasLive: true, LiveHash: 1469598103934665603} // FNV-1a offset
	for _, n := range liveNodes {
		prof.LiveHash ^= uint64(n)
		prof.LiveHash *= 1099511628211
		liveOut := 0
		for _, ai := range g.OutArcs(n) {
			if ctx.ArcDisabled[ai] {
				continue
			}
			a := g.Arc(ai)
			if a.Kind == graph.LaunchArc && n != start {
				continue
			}
			if live[a.To] {
				liveOut++
			}
		}
		if liveOut >= 2 {
			prof.Divergent = true
		}
	}
	return prof
}

// AdoptRelationResults transfers memoized relation results from a
// previous context for the same graph into this one — the refinement
// loop's cross-iteration reuse. keepEnd selects the endpoints whose
// results are still valid (endpoints NOT forward-reachable from any
// newly added exception's pins: a new exception can only complete at an
// endpoint its pins reach, so relation results elsewhere are untouched
// by an exception-only rebuild). Pair profiles transfer unconditionally
// — liveness never depends on exceptions.
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
	prc.profile.Range(func(k, v any) bool {
		rc.profile.Store(k, v)
		return true
	})
	prc.liveBwd.Range(func(k, v any) bool {
		rc.liveBwd.Store(k, v)
		return true
	})
}
