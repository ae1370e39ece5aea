package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"modemerge/internal/graph"
	"modemerge/internal/obs"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

// forEachParallel runs fn(i) for i in [0,n) on a pool of at most workers
// goroutines (0 → GOMAXPROCS; 1 runs inline, fully sequential).
// Cancelling cx stops feeding new indices; already-started fn calls run
// to completion. Callers must check cx.Err() afterwards — results for
// unvisited indices are missing.
func forEachParallel(cx context.Context, n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if cx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if cx.Err() != nil {
					continue // drain without working
				}
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// eachContext runs fn on the merged context and every member context on
// the bounded pool. The merged context goes first: it carries the union
// of the members' clocks and exceptions, so its propagations are
// usually the longest, and starting the longest task first keeps the
// pool from idling behind it. Callers check cx.Err() afterwards.
func (mg *Merger) eachContext(cx context.Context, fn func(ctx *sta.Context)) {
	forEachParallel(cx, len(mg.ctxs)+1, mg.opt.parallelism(), func(m int) {
		if m == 0 {
			fn(mg.mctx)
		} else {
			fn(mg.ctxs[m-1])
		}
	})
}

// endpointAll computes pass-1 relations for every context on the bounded
// pool. On cancellation the maps are partial; callers check cx.Err().
func (mg *Merger) endpointAll(cx context.Context) (perMode []map[sta.RelKey]relation.Set, merged map[sta.RelKey]relation.Set) {
	perMode = make([]map[sta.RelKey]relation.Set, len(mg.ctxs))
	forEachParallel(cx, len(mg.ctxs)+1, mg.opt.parallelism(), func(m int) {
		if m == 0 { // merged first, as in eachContext
			merged = mg.mctx.EndpointRelations(cx)
		} else {
			perMode[m-1] = mg.ctxs[m-1].EndpointRelations(cx)
		}
	})
	return perMode, merged
}

// clockRefinement implements §3.1.8: walk the merged clock network and
// stop every clock at the first node where no individual mode propagates
// it, emitting set_clock_sense -stop_propagation.
func (mg *Merger) clockRefinement() error {
	justify := func(node graph.NodeID, mergedClock string) bool {
		for m, ctx := range mg.ctxs {
			local := mg.cmap.localName(mergedClock, m)
			if local == "" {
				continue
			}
			for _, name := range ctx.ClockNamesAt(node) {
				if name == local {
					return true
				}
			}
		}
		return false
	}
	frontiers := mg.mctx.ExtraClocks(justify)
	for _, f := range frontiers {
		pins := mg.nodeRefs(f.Nodes)
		mg.merged.ClockSenses = append(mg.merged.ClockSenses, &sdc.ClockSense{
			StopPropagation: true,
			Clocks:          []string{f.Clock},
			Pins:            pins,
			Comment:         "inferred by clock refinement",
		})
		mg.Report.ClockStops += len(pins)
		pinNames := make([]string, len(pins))
		for i, p := range pins {
			pinNames[i] = p.Name
		}
		mg.Report.prov(obs.Provenance{
			Stage:      "clock_refine",
			Rule:       "§3.1.8 clock refinement",
			Action:     obs.ActionInsert,
			Constraint: "set_clock_sense -stop_propagation",
			Clocks:     []string{f.Clock},
			Pins:       pinNames,
			Detail:     "no individual mode propagates the clock past these pins",
		})
	}
	if len(frontiers) > 0 {
		return mg.rebuildMerged()
	}
	return nil
}

// dataRefinement implements §3.2: first block launch clocks that no
// individual mode produces (emitting scoped false paths), then run the
// 3-pass timing-relationship comparison, adding corrective false paths
// until the merged mode matches the per-path most-restrictive individual
// behaviour.
func (mg *Merger) dataRefinement(cx context.Context, sp *obs.Span) error {
	bsp := sp.Child("launch_blocking")
	err := mg.blockExtraLaunchClocks()
	bsp.Add("launch_blocks", int64(mg.Report.LaunchBlocks))
	bsp.Finish()
	if err != nil {
		return err
	}
	for iter := 0; iter < mg.opt.MaxRefineIterations; iter++ {
		if err := cx.Err(); err != nil {
			return err
		}
		mg.Report.Iterations = iter + 1
		isp := sp.Child(fmt.Sprintf("iteration_%d", iter+1))
		added, err := mg.threePass(cx, isp)
		isp.Add("constraints_added", int64(added))
		isp.Finish()
		if err != nil {
			return err
		}
		if added == 0 {
			return nil
		}
		if err := mg.rebuildMergedForRefine(); err != nil {
			return err
		}
	}
	mg.Report.warnf("refinement did not converge in %d iterations", mg.opt.MaxRefineIterations)
	return nil
}

// blockExtraLaunchClocks is §3.2's first data refinement step, run at arc
// granularity: a launch clock's data may cross an arc in the merged mode
// only if it does so in at least one individual mode.
func (mg *Merger) blockExtraLaunchClocks() error {
	// The justification callbacks run once per arc per clock, so resolve
	// the merged→local clock mapping and each mode's launch-clock presence
	// up front; the callbacks reduce to array lookups.
	mergedNames := mg.mctx.AllClockNames()
	mergedIdx := make(map[string]int, len(mergedNames))
	for i, n := range mergedNames {
		mergedIdx[n] = i
	}
	launchAt := make([][][]bool, len(mg.ctxs))
	for m, ctx := range mg.ctxs {
		locals := make([]string, len(mergedNames))
		for i, mc := range mergedNames {
			locals[i] = mg.cmap.localName(mc, m)
		}
		launchAt[m] = ctx.LaunchClockTable(locals)
	}
	seedJustify := func(node graph.NodeID, mergedClock string) bool {
		idx := mergedIdx[mergedClock]
		for m := range mg.ctxs {
			if row := launchAt[m][idx]; row != nil && row[node] {
				return true
			}
		}
		return false
	}
	arcJustify := func(ai int32, mergedClock string) bool {
		idx := mergedIdx[mergedClock]
		from := mg.g.Arc(ai).From
		for m, ctx := range mg.ctxs {
			if row := launchAt[m][idx]; row != nil && row[from] && !ctx.ArcDisabledAt(ai) {
				return true
			}
		}
		return false
	}
	frontiers := mg.mctx.ExtraLaunchFlows(seedJustify, arcJustify)
	for _, f := range frontiers {
		if len(f.Nodes) > 0 {
			through := &sdc.PointList{Pins: mg.nodeRefs(f.Nodes)}
			e := &sdc.Exception{
				Kind:     sdc.FalsePath,
				From:     &sdc.PointList{Clocks: []string{f.Clock}},
				Throughs: []*sdc.PointList{through},
				To:       &sdc.PointList{},
				Comment:  "inferred by data refinement (unjustified launch clock)",
			}
			mg.merged.Exceptions = append(mg.merged.Exceptions, e)
			mg.Report.LaunchBlocks += len(f.Nodes)
			mg.provException("data_refine/launch_blocking",
				"§3.2 launch clock blocking", e, f.Clock,
				"no individual mode launches this clock at these pins")
		}
		for _, pair := range f.Arcs {
			e := &sdc.Exception{
				Kind: sdc.FalsePath,
				From: &sdc.PointList{Clocks: []string{f.Clock}},
				Throughs: []*sdc.PointList{
					{Pins: mg.nodeRefs(pair[:1])},
					{Pins: mg.nodeRefs(pair[1:])},
				},
				To:      &sdc.PointList{},
				Comment: "inferred by data refinement (unjustified launch flow)",
			}
			mg.merged.Exceptions = append(mg.merged.Exceptions, e)
			mg.Report.LaunchBlocks++
			mg.provException("data_refine/launch_blocking",
				"§3.2 launch clock blocking", e, f.Clock,
				"no individual mode drives this clock across the arc")
		}
	}
	if len(frontiers) > 0 {
		return mg.rebuildMergedExcOnly()
	}
	return nil
}

// provException records provenance for one refinement-inserted exception,
// rendering the exact SDC command it contributes to the merged mode.
func (mg *Merger) provException(stage, rule string, e *sdc.Exception, clock, detail string) {
	p := obs.Provenance{
		Stage:      stage,
		Rule:       rule,
		Action:     obs.ActionInsert,
		Constraint: sdc.WriteException(e),
		Detail:     detail,
	}
	if clock != "" {
		p.Clocks = []string{clock}
	}
	mg.Report.prov(p)
}

// nodeRefs converts graph nodes to pin/port references, sorted by name.
func (mg *Merger) nodeRefs(nodes []graph.NodeID) []sdc.ObjRef {
	refs := make([]sdc.ObjRef, 0, len(nodes))
	for _, n := range nodes {
		node := mg.g.Node(n)
		kind := sdc.PinObj
		if node.Port != nil {
			kind = sdc.PortObj
		}
		refs = append(refs, sdc.ObjRef{Kind: kind, Name: node.Name})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Name < refs[j].Name })
	return refs
}

// groupStates is the per-path-group comparison input: the per-mode state
// sets (merged clock namespace) and the merged mode's state set.
type groupStates struct {
	perMode []relation.Set // indexed by mode; zero set = group absent
	merged  relation.Set
}

// mergedTimes reports whether the merged mode actually times the group
// (non-empty and not purely false).
func mergedTimes(gs *groupStates) bool {
	return !gs.merged.Empty() && !gs.merged.Equal(relation.NewSet(relation.StateFalse))
}

// target computes the merged-target state set: for singleton per-mode
// sets, the most restrictive state across modes (absent = not timed =
// false). Multi-state mode sets make the group ambiguous (nil, false).
func (gs *groupStates) target() (relation.Set, bool) {
	states := make([]relation.State, 0, len(gs.perMode))
	for _, set := range gs.perMode {
		if set.Empty() {
			states = append(states, relation.StateFalse)
			continue
		}
		st, single := set.Single()
		if !single {
			return relation.Set{}, false
		}
		states = append(states, st)
	}
	return relation.NewSet(relation.MergeTarget(states)), true
}

// mapRelKey rewrites a mode-local relation key into the merged clock
// namespace.
func (mg *Merger) mapRelKey(m int, k sta.RelKey) sta.RelKey {
	k.Launch = mg.cmap.mapName(m, k.Launch)
	k.Capture = mg.cmap.mapName(m, k.Capture)
	return k
}

// gatherGroups aligns relation maps of all modes and the merged mode.
// groupStates and their per-mode slices carve out of block arenas — one
// gather allocates a handful of blocks instead of two tiny objects per
// path group.
func (mg *Merger) gatherGroups(perMode []map[sta.RelKey]relation.Set, merged map[sta.RelKey]relation.Set) map[sta.RelKey]*groupStates {
	nModes := len(perMode) // one entry per scenario context, not per base mode
	// First arena block sized to the expected group count (the merged map
	// is normally the union key space); per-endpoint gathers hold a few
	// dozen groups, so a fixed-size block would mostly be waste.
	blockSize := len(merged) + 8
	out := make(map[sta.RelKey]*groupStates, blockSize)
	var gsArena []groupStates
	var setArena []relation.Set
	get := func(k sta.RelKey) *groupStates {
		gs := out[k]
		if gs == nil {
			if len(gsArena) == 0 {
				gsArena = make([]groupStates, blockSize)
				setArena = make([]relation.Set, blockSize*nModes)
			}
			gs = &gsArena[0]
			gsArena = gsArena[1:]
			gs.perMode = setArena[:nModes:nModes]
			setArena = setArena[nModes:]
			out[k] = gs
		}
		return gs
	}
	for m, rels := range perMode {
		for k, set := range rels {
			mk := mg.mapRelKey(m, k)
			gs := get(mk)
			gs.perMode[m].AddSet(set)
		}
	}
	for k, set := range merged {
		get(k).merged = set
	}
	return out
}

// nameSet accumulates deduplicated names with deterministic extraction.
// The refinement passes and the equivalence checker share it for
// collecting the endpoints forwarded to the next pass.
type nameSet map[string]bool

func (s nameSet) add(name string) { s[name] = true }

// sorted returns the names in ascending order.
func (s nameSet) sorted() []string {
	out := make([]string, 0, len(s))
	for name := range s {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// sortedRelKeys extracts a relation (or group) map's keys in the
// canonical end/start/launch/capture/check order, so per-endpoint
// classification visits groups deterministically instead of in map
// order.
func sortedRelKeys[V any](m map[sta.RelKey]V) []sta.RelKey {
	keys := make([]sta.RelKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sta.SortRelKeys(keys)
	return keys
}

// relGranularity selects which fingerprint memo an endpoint prune
// consults: pass-1 (endpoint) or pass-2 (start–end) relation maps.
type relGranularity int

const (
	granEndpoint relGranularity = iota
	granStartEnd
)

// relFP is one memoized endpoint fingerprint: the canonical hash of the
// endpoint's relation map (sta.RelationFingerprint) plus whether every
// state set in it is a singleton.
type relFP struct {
	hash   string
	single bool
}

// epOutcome records one endpoint's complete pass-1 (or pass-2) effect in
// an iteration that produced no fixes for it: the report-counter deltas
// and what it forwarded to the next pass. An unaffected endpoint — not
// forward-reachable from any exception added since — classifies
// identically in the next iteration (member relations never change and
// its merged relations are untouched), so the recorded outcome replays
// without recomputing or even touching the relation maps. Endpoints that
// produced fixes never replay: a fix's pins always include the endpoint
// itself, so it lands in the invalidation frontier.
type epOutcome struct {
	ambiguous, mismatch, pessim int
	pruned                      bool
	forwarded                   bool     // pass 1: endpoint goes to pass 2
	forwardStarts               []string // pass 2: starts forwarded to pass 3
}

// pairOutcome is the pass-3 analogue for one (start, end) pair that
// emitted nothing.
type pairOutcome struct {
	mismatch, pessim int
}

// refineMemo carries refinement state across iterations of the 3-pass
// loop. Member-mode fingerprints stay valid for the whole merge (member
// contexts never change); merged-mode fingerprints and recorded
// endpoint/pair outcomes are dropped per endpoint when new exceptions
// invalidate them (rebuildMergedForRefine). pending collects the
// exceptions added since the last merged rebuild — their pins define the
// invalidation frontier.
type refineMemo struct {
	mu       sync.Mutex
	memberP1 []map[graph.NodeID]relFP
	memberSE []map[graph.NodeID]relFP
	mergedP1 map[graph.NodeID]relFP
	mergedSE map[graph.NodeID]relFP
	pending  []*sdc.Exception

	p1Out map[graph.NodeID]*epOutcome
	p2Out map[graph.NodeID]*epOutcome
	p3Out map[[2]graph.NodeID]*pairOutcome

	viableOnce sync.Once
	viable     bool
}

// table returns (creating lazily) the fingerprint table for context m at
// the given granularity; m == nModes addresses the merged context.
func (mm *refineMemo) table(m int, gran relGranularity, nModes int) map[graph.NodeID]relFP {
	if m == nModes {
		if gran == granEndpoint {
			if mm.mergedP1 == nil {
				mm.mergedP1 = map[graph.NodeID]relFP{}
			}
			return mm.mergedP1
		}
		if mm.mergedSE == nil {
			mm.mergedSE = map[graph.NodeID]relFP{}
		}
		return mm.mergedSE
	}
	tables := &mm.memberP1
	if gran == granStartEnd {
		tables = &mm.memberSE
	}
	if *tables == nil {
		*tables = make([]map[graph.NodeID]relFP, nModes)
	}
	if (*tables)[m] == nil {
		(*tables)[m] = map[graph.NodeID]relFP{}
	}
	return (*tables)[m]
}

// dropMerged invalidates merged-mode state — fingerprints and recorded
// outcomes: all of it when affected is nil, otherwise only the endpoints
// marked affected.
func (mm *refineMemo) dropMerged(affected []bool) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if affected == nil {
		mm.mergedP1, mm.mergedSE = nil, nil
		mm.p1Out, mm.p2Out, mm.p3Out = nil, nil, nil
		return
	}
	for _, tbl := range []map[graph.NodeID]relFP{mm.mergedP1, mm.mergedSE} {
		for end := range tbl {
			if affected[end] {
				delete(tbl, end)
			}
		}
	}
	for _, tbl := range []map[graph.NodeID]*epOutcome{mm.p1Out, mm.p2Out} {
		for end := range tbl {
			if affected[end] {
				delete(tbl, end)
			}
		}
	}
	for pair := range mm.p3Out {
		if affected[pair[1]] {
			delete(mm.p3Out, pair)
		}
	}
}

// record helpers: outcomes are written by the sequential classification
// phases and read by the next iteration's parallel phases, so plain map
// access with lazy init suffices (no concurrent writers).

func (mm *refineMemo) recordP1(end graph.NodeID, o *epOutcome) {
	if mm.p1Out == nil {
		mm.p1Out = map[graph.NodeID]*epOutcome{}
	}
	mm.p1Out[end] = o
}

func (mm *refineMemo) recordP2(end graph.NodeID, o *epOutcome) {
	if mm.p2Out == nil {
		mm.p2Out = map[graph.NodeID]*epOutcome{}
	}
	mm.p2Out[end] = o
}

func (mm *refineMemo) recordP3(pair [2]graph.NodeID, o *pairOutcome) {
	if mm.p3Out == nil {
		mm.p3Out = map[[2]graph.NodeID]*pairOutcome{}
	}
	mm.p3Out[pair] = o
}

// mapModeRels rewrites a mode-local relation map into the merged clock
// namespace (two local keys may collapse onto one merged key; their sets
// union, exactly as gatherGroups would accumulate them).
func (mg *Merger) mapModeRels(m int, rels map[sta.RelKey]relation.Set) map[sta.RelKey]relation.Set {
	out := make(map[sta.RelKey]relation.Set, len(rels))
	for k, set := range rels {
		mk := mg.mapRelKey(m, k)
		cur := out[mk]
		cur.AddSet(set)
		out[mk] = cur
	}
	return out
}

// endpointFP returns the memoized relation fingerprint of one endpoint in
// context m (m == len(ctxs) is the merged context) at the given
// granularity. Member maps are fingerprinted in the merged clock
// namespace so they compare across modes and against the merged mode.
func (mg *Merger) endpointFP(m int, end graph.NodeID, gran relGranularity) relFP {
	mm := &mg.memo
	mm.mu.Lock()
	tbl := mm.table(m, gran, len(mg.ctxs))
	if fp, ok := tbl[end]; ok {
		mm.mu.Unlock()
		return fp
	}
	mm.mu.Unlock()
	var rels map[sta.RelKey]relation.Set
	switch {
	case m == len(mg.ctxs) && gran == granEndpoint:
		rels = mg.mctx.EndpointRelationsAt(end)
	case m == len(mg.ctxs):
		rels = mg.mctx.StartEndRelations(end)
	case gran == granEndpoint:
		rels = mg.mapModeRels(m, mg.ctxs[m].EndpointRelationsAt(end))
	default:
		rels = mg.mapModeRels(m, mg.ctxs[m].StartEndRelations(end))
	}
	hash, single := sta.RelationFingerprint(rels)
	fp := relFP{hash: hash, single: single}
	mm.mu.Lock()
	mm.table(m, gran, len(mg.ctxs))[end] = fp
	mm.mu.Unlock()
	return fp
}

// pruneViable reports (computed once per merge) whether the cross-mode
// fingerprint prune can ever fire: relation maps compare in the merged
// clock namespace, so two modes' maps can only be key-equal when both
// modes' clocks map onto the same merged clock-name set. Modes whose
// clocks stay apart in the union (different periods or waveforms) can
// never agree at any endpoint that has relations — fingerprinting them
// is pure overhead, and the prune short-circuits to "not prunable".
func (mg *Merger) pruneViable() bool {
	mm := &mg.memo
	mm.viableOnce.Do(func() {
		var ref map[string]bool
		for m, ctx := range mg.ctxs {
			set := map[string]bool{}
			for _, ci := range ctx.Clocks {
				set[mg.cmap.mapName(m, ci.Def.Name)] = true
			}
			if m == 0 {
				ref = set
				continue
			}
			if len(set) != len(ref) {
				return
			}
			for name := range set {
				if !ref[name] {
					return
				}
			}
		}
		mm.viable = true
	})
	return mm.viable
}

// pruneEndpoint reports whether an endpoint provably produces no
// counters, no forwarding, and no fixes in a comparison pass, so the
// pass can skip it without changing a single output byte. That holds
// exactly when every mode's relation map (merged namespace) is the same
// all-singleton map AND the merged mode's map equals it too: then every
// path group's target is its own merged state — Compare returns Match
// for all of them, which is the one classification with zero side
// effects. Identical-but-multi-state maps are NOT prunable (the slow
// path counts them ambiguous and forwards the endpoint).
func (mg *Merger) pruneEndpoint(end graph.NodeID, gran relGranularity) bool {
	first := mg.endpointFP(0, end, gran)
	if !first.single {
		return false
	}
	for m := 1; m < len(mg.ctxs); m++ {
		if mg.endpointFP(m, end, gran).hash != first.hash {
			return false
		}
	}
	if mg.opt.Inject.PruneSkipDifferingEndpoints {
		// Injected bug: agreement between the members alone "justifies"
		// the prune — the merged mode is never consulted, so a merged
		// context that relaxes the members' common relation (optimism)
		// slips through unfixed.
		return true
	}
	return mg.endpointFP(len(mg.ctxs), end, gran).hash == first.hash
}

// prunePair reports whether a pass-3 pair provably emits nothing: every
// context's live start→end cone is divergence-free (at most one live
// out-arc per node ⇒ a single live chain), and all contexts with a live
// path share the same chain. Then every interior node lies on every live
// path, its per-context state sets replicate the pair's pass-2 sets, and
// the through-point scan can only rediscover the pass-2 ambiguity that
// forwarded the pair — hitting `continue` at every node. Reconvergent
// cones (the case pass 3 exists for) are Divergent somewhere and are
// never pruned.
func (mg *Merger) prunePair(startID, endID graph.NodeID) bool {
	var ref sta.PairProfile
	have := false
	for m := 0; m <= len(mg.ctxs); m++ {
		ctx := mg.mctx
		if m < len(mg.ctxs) {
			ctx = mg.ctxs[m]
		}
		p := ctx.PairProfile(startID, endID)
		if p.Divergent {
			return false
		}
		if !p.HasLive {
			continue
		}
		if !have {
			ref, have = p, true
			continue
		}
		if p.LiveHash != ref.LiveHash {
			return false
		}
	}
	return true
}

// warmContexts forces, per context and in parallel, the full pass-1 tag
// propagation when enough endpoints are cold to amortize it. A context
// missing only a few (a later iteration's invalidation frontier) skips
// the warm, and those misses are served by per-endpoint cone
// propagations instead — identical results either way (see
// relcache.go). The forced tags stay on the context: slack, trace and
// sign-off analysis read them too.
func (mg *Merger) warmContexts(cx context.Context, ends []graph.NodeID) {
	mg.eachContext(cx, func(ctx *sta.Context) {
		missing := ctx.MissingEndpointRelations(ends)
		if missing == 0 || missing*4 <= len(ends) && missing < 32 {
			return
		}
		ctx.WarmEndpointRelations()
	})
}

// threePass runs passes 1–3 of §3.2 once, emitting corrective false
// paths; it returns how many constraints were added. Cancelling cx
// aborts between and inside the passes with the context error.
func (mg *Merger) threePass(cx context.Context, sp *obs.Span) (int, error) {
	added := 0

	// ---- Pass 1: endpoint granularity ----
	p1 := sp.Child("pass1")
	ends := mg.g.Endpoints()
	mg.warmContexts(cx, ends)
	if err := cx.Err(); err != nil {
		p1.Finish()
		return 0, err
	}
	usePrune := !mg.opt.Slow.NoEndpointPrune && mg.pruneViable()
	// Per-endpoint gather (and prune fingerprinting) runs in parallel;
	// classification and fix emission stay sequential, in graph endpoint
	// order with sorted keys, so emitted constraints and counters are
	// deterministic. Endpoints with a recorded outcome from the previous
	// iteration replay it without touching any relation map.
	type endpointWork struct {
		replay *epOutcome
		pruned bool
		groups map[sta.RelKey]*groupStates
		keys   []sta.RelKey
	}
	work := make([]endpointWork, len(ends))
	forEachParallel(cx, len(ends), mg.opt.parallelism(), func(i int) {
		endID := ends[i]
		if o := mg.memo.p1Out[endID]; o != nil {
			work[i].replay = o
			return
		}
		if usePrune && mg.pruneEndpoint(endID, granEndpoint) {
			work[i].pruned = true
			return
		}
		perMode := make([]map[sta.RelKey]relation.Set, len(mg.ctxs))
		for m, ctx := range mg.ctxs {
			perMode[m] = ctx.EndpointRelationsAt(endID)
		}
		work[i].groups = mg.gatherGroups(perMode, mg.mctx.EndpointRelationsAt(endID))
		work[i].keys = sortedRelKeys(work[i].groups)
	})
	if err := cx.Err(); err != nil {
		p1.Finish()
		return 0, err
	}
	// Pruned and replayed endpoints' groups are absent from `groups`, as
	// are those of computed endpoints without fixes. That is safe for
	// emitFixes: its closure checks only ever look up groups at the
	// endpoints of the fixes themselves, and fix endpoints' groups are all
	// present.
	groups := map[sta.RelKey]*groupStates{}
	pass2 := nameSet{} // ambiguous endpoints forwarded to pass 2
	var p1Fixes []fixEntry
	p1Groups, p1Pruned, p1Replayed := 0, 0, 0
	for i := range work {
		endID := ends[i]
		if o := work[i].replay; o != nil {
			p1Replayed++
			mg.Report.Pass1Ambiguous += o.ambiguous
			mg.Report.Pass1Mismatch += o.mismatch
			mg.Report.PessimisticGroups += o.pessim
			if o.pruned {
				p1Pruned++
			}
			if o.forwarded {
				pass2.add(mg.g.Node(endID).Name)
			}
			continue
		}
		if work[i].pruned {
			p1Pruned++
			mg.memo.recordP1(endID, &epOutcome{pruned: true})
			continue
		}
		o := &epOutcome{}
		var endFixes []fixEntry
		for _, key := range work[i].keys {
			gs := work[i].groups[key]
			target, ok := gs.target()
			if !ok {
				o.ambiguous++
				o.forwarded = true
				continue
			}
			switch relation.Compare(target, gs.merged) {
			case relation.Match:
			case relation.Mismatch:
				o.mismatch++
				if f, ok := fixFor(key, target, gs.merged); ok {
					endFixes = append(endFixes, f)
				} else {
					o.pessim++
				}
			case relation.Ambiguous:
				o.ambiguous++
				o.forwarded = true
			}
		}
		p1Groups += len(work[i].keys)
		mg.Report.Pass1Ambiguous += o.ambiguous
		mg.Report.Pass1Mismatch += o.mismatch
		mg.Report.PessimisticGroups += o.pessim
		if o.forwarded {
			pass2.add(mg.g.Node(endID).Name)
		}
		if len(endFixes) > 0 {
			p1Fixes = append(p1Fixes, endFixes...)
			for k, gs := range work[i].groups {
				groups[k] = gs
			}
		} else {
			// Fixless outcome: replayable next iteration while the endpoint
			// stays outside the invalidation frontier. (Fix endpoints never
			// replay — their own pins invalidate them.)
			mg.memo.recordP1(endID, o)
		}
	}
	added += mg.emitFixes(p1Fixes, groups, "data_refine/pass1", "§3.2 pass-1 endpoint comparison")
	p1.Add("path_groups", int64(p1Groups))
	p1.Add("fixes", int64(len(p1Fixes)))
	p1.Add("pruned_endpoints", int64(p1Pruned))
	p1.Add("replayed_endpoints", int64(p1Replayed))
	p1.Finish()

	// ---- Pass 2: startpoint–endpoint granularity ----
	p2 := sp.Child("pass2")
	pass2Ends := pass2.sorted()
	pass2IDs := make([]graph.NodeID, len(pass2Ends))
	for i, name := range pass2Ends {
		id, ok := mg.g.NodeByName(name)
		if !ok {
			p2.Finish()
			return added, fmt.Errorf("internal: endpoint %q not in graph", name)
		}
		pass2IDs[i] = id
	}
	// One batched cone propagation per context fills the start–end maps
	// of every endpoint this pass gathers (replayed endpoints read none),
	// in parallel before the endpoint loop fans out.
	var fill []graph.NodeID
	for _, id := range pass2IDs {
		if mg.memo.p2Out[id] == nil {
			fill = append(fill, id)
		}
	}
	mg.eachContext(cx, func(ctx *sta.Context) { ctx.FillStartEndRelations(fill) })
	type sePair struct{ start, end string }
	pass3 := map[sePair]bool{}
	// Per-endpoint relations (and prune fingerprints) compute in parallel
	// (contexts are safe for concurrent relation queries); comparison
	// stays sequential and deterministic. Fixes and fix endpoints' groups
	// accumulate across endpoints so the emission step can aggregate
	// clock-pair kills into few constraints (keys are unique per endpoint,
	// so merging the maps is safe).
	seWork := make([]endpointWork, len(pass2IDs))
	forEachParallel(cx, len(pass2IDs), mg.opt.parallelism(), func(i int) {
		endID := pass2IDs[i]
		if o := mg.memo.p2Out[endID]; o != nil {
			seWork[i].replay = o
			return
		}
		if usePrune && mg.pruneEndpoint(endID, granStartEnd) {
			seWork[i].pruned = true
			return
		}
		perModeSE := make([]map[sta.RelKey]relation.Set, len(mg.ctxs))
		for m, ctx := range mg.ctxs {
			perModeSE[m] = ctx.StartEndRelations(endID)
		}
		seWork[i].groups = mg.gatherGroups(perModeSE, mg.mctx.StartEndRelations(endID))
		seWork[i].keys = sortedRelKeys(seWork[i].groups)
	})
	if err := cx.Err(); err != nil {
		p2.Finish()
		return added, err
	}
	allSEGroups := map[sta.RelKey]*groupStates{}
	var p2Fixes []fixEntry
	p2Groups, p2Pruned, p2Replayed := 0, 0, 0
	for i := range seWork {
		endID := pass2IDs[i]
		endName := pass2Ends[i]
		if o := seWork[i].replay; o != nil {
			p2Replayed++
			mg.Report.Pass2Ambiguous += o.ambiguous
			mg.Report.Pass2Mismatch += o.mismatch
			mg.Report.PessimisticGroups += o.pessim
			if o.pruned {
				p2Pruned++
			}
			for _, start := range o.forwardStarts {
				pass3[sePair{start, endName}] = true
			}
			continue
		}
		if seWork[i].pruned {
			p2Pruned++
			mg.memo.recordP2(endID, &epOutcome{pruned: true})
			continue
		}
		o := &epOutcome{}
		var endFixes []fixEntry
		for _, key := range seWork[i].keys {
			gs := seWork[i].groups[key]
			target, ok := gs.target()
			if !ok {
				o.ambiguous++
				o.forwardStarts = append(o.forwardStarts, key.Start)
				pass3[sePair{key.Start, key.End}] = true
				continue
			}
			switch relation.Compare(target, gs.merged) {
			case relation.Match:
			case relation.Mismatch:
				o.mismatch++
				if f, ok := fixFor(key, target, gs.merged); ok {
					endFixes = append(endFixes, f)
				} else {
					o.pessim++
				}
			case relation.Ambiguous:
				o.ambiguous++
				o.forwardStarts = append(o.forwardStarts, key.Start)
				pass3[sePair{key.Start, key.End}] = true
			}
		}
		p2Groups += len(seWork[i].keys)
		mg.Report.Pass2Ambiguous += o.ambiguous
		mg.Report.Pass2Mismatch += o.mismatch
		mg.Report.PessimisticGroups += o.pessim
		if len(endFixes) > 0 {
			p2Fixes = append(p2Fixes, endFixes...)
			for k, gs := range seWork[i].groups {
				allSEGroups[k] = gs
			}
		} else {
			mg.memo.recordP2(endID, o)
		}
	}
	added += mg.emitFixes(p2Fixes, allSEGroups, "data_refine/pass2", "§3.2 pass-2 start-end comparison")
	p2.Add("endpoints", int64(len(pass2Ends)))
	p2.Add("path_groups", int64(p2Groups))
	p2.Add("fixes", int64(len(p2Fixes)))
	p2.Add("pruned_endpoints", int64(p2Pruned))
	p2.Add("replayed_endpoints", int64(p2Replayed))
	p2.Finish()

	// ---- Pass 3: through-point granularity ----
	p3 := sp.Child("pass3")
	defer p3.Finish()
	var pairs []sePair
	for p := range pass3 {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].start != pairs[j].start {
			return pairs[i].start < pairs[j].start
		}
		return pairs[i].end < pairs[j].end
	})
	// Relations per pair (and reconvergence prunes) compute in parallel;
	// comparison and constraint emission stay sequential and
	// deterministic.
	usePairPrune := !mg.opt.Slow.NoPairPrune
	type p3data struct {
		perMode [][]sta.ThroughRel
		merged  []sta.ThroughRel
		ids     [2]graph.NodeID
		replay  *pairOutcome
		skip    bool
		err     error
	}
	data := make([]p3data, len(pairs))
	forEachParallel(cx, len(pairs), mg.opt.parallelism(), func(i int) {
		startID, ok1 := mg.g.NodeByName(pairs[i].start)
		endID, ok2 := mg.g.NodeByName(pairs[i].end)
		if !ok1 || !ok2 {
			data[i].err = fmt.Errorf("internal: pass-3 pair %s→%s not in graph", pairs[i].start, pairs[i].end)
			return
		}
		data[i].ids = [2]graph.NodeID{startID, endID}
		if o := mg.memo.p3Out[data[i].ids]; o != nil {
			data[i].replay = o
			return
		}
		if usePairPrune && mg.prunePair(startID, endID) {
			data[i].skip = true
			return
		}
		perMode := make([][]sta.ThroughRel, len(mg.ctxs))
		for m, ctx := range mg.ctxs {
			perMode[m] = ctx.ThroughRelations(startID, endID)
		}
		data[i].perMode = perMode
		data[i].merged = mg.mctx.ThroughRelations(startID, endID)
	})
	if err := cx.Err(); err != nil {
		return added, err
	}
	p3Pruned, p3Replayed := 0, 0
	for i, p := range pairs {
		if data[i].err != nil {
			return added, data[i].err
		}
		if o := data[i].replay; o != nil {
			p3Replayed++
			mg.Report.Pass3Mismatch += o.mismatch
			mg.Report.PessimisticGroups += o.pessim
			continue
		}
		if data[i].skip {
			p3Pruned++
			continue
		}
		mis0, pes0 := mg.Report.Pass3Mismatch, mg.Report.PessimisticGroups
		n, err := mg.pass3(p.start, p.end, data[i].perMode, data[i].merged)
		if err != nil {
			return added, err
		}
		added += n
		if n == 0 {
			// An emitting pair invalidates its own endpoint (the fix pins
			// include it); only silent pairs are replayable.
			mg.memo.recordP3(data[i].ids, &pairOutcome{
				mismatch: mg.Report.Pass3Mismatch - mis0,
				pessim:   mg.Report.PessimisticGroups - pes0,
			})
		}
	}
	p3.Add("pairs", int64(len(pairs)))
	p3.Add("pruned_pairs", int64(p3Pruned))
	p3.Add("replayed_pairs", int64(p3Replayed))
	return added, nil
}

// fixEntry is one corrective constraint request: a mismatching path group
// plus the target state the merged mode must be brought to (StateFalse →
// a false path, Multicycle → a multicycle path, Max/MinDelay → a delay
// bound).
type fixEntry struct {
	key   sta.RelKey
	state relation.State
}

// fixFor decides whether a pass-1/2 mismatch is correctable. Two cases
// get a corrective constraint:
//
//   - the target is false (the merged mode times paths no mode times —
//     the paper's accuracy fix, a corrective false path), or
//   - the merged state relaxes the target (e.g. a kept MCP(3) where one
//     mode demands MCP(2) — a sign-off safety fix, a corrective
//     exception of the target state).
//
// Remaining differences leave the merged mode tighter than needed, which
// is sign-off safe and only counted.
func fixFor(key sta.RelKey, target, merged relation.Set) (fixEntry, bool) {
	ts, ok1 := target.Single()
	ms, ok2 := merged.Single()
	if !ok1 || !ok2 {
		return fixEntry{}, false
	}
	if ts != relation.StateFalse && !relation.Relaxed(ms, ts) {
		return fixEntry{}, false
	}
	return fixEntry{key: key, state: ts}, true
}

// fixException builds the corrective exception skeleton for a target
// state and check side.
func fixException(state relation.State, check relation.CheckType) *sdc.Exception {
	e := &sdc.Exception{From: &sdc.PointList{}, To: &sdc.PointList{},
		Comment: "inferred by relationship refinement", Multiplier: 1}
	switch state.Kind {
	case relation.Multicycle:
		e.Kind = sdc.MulticyclePath
		e.Multiplier = state.Mult
	case relation.MaxDelayK:
		e.Kind = sdc.MaxDelay
		e.Value = state.Value
	case relation.MinDelayK:
		e.Kind = sdc.MinDelay
		e.Value = state.Value
	default:
		e.Kind = sdc.FalsePath
	}
	switch check {
	case relation.Setup:
		e.SetupHold = sdc.MaxOnly
	case relation.Hold:
		e.SetupHold = sdc.MinOnly
	}
	return e
}

// emitFixes turns mismatch entries into corrective constraints, keeping
// the output compact without ever widening a constraint beyond its fixed
// path groups:
//
//   - Entries sharing (launch, capture, check, target state) aggregate
//     into one exception -from [launch] -through {startpoints} -through
//     {endpoints} -to [capture] when the fixed set is the full
//     startpoints×endpoints cartesian product; otherwise one exception
//     per startpoint carries exactly its endpoints.
//   - Pass-1 entries (start "*") aggregate over endpoints only.
//   - Corrective setup and hold twins collapse into one unrestricted
//     exception (see addFalsePath).
func (mg *Merger) emitFixes(fixes []fixEntry, groups map[sta.RelKey]*groupStates, stage, rule string) int {
	if len(fixes) == 0 {
		return 0
	}

	// Step 1: when every (launch, capture) pair the merged mode times
	// between one start and one end mismatches with the same false
	// target, one unscoped false path covers the whole group — the
	// paper's "set_false_path -to rX/D" CSTR1 form. The check is safe
	// here because `groups` contains every pair of the group.
	type groupID struct{ start, end string }
	fixedKeys := map[sta.RelKey]bool{}
	for _, f := range fixes {
		fixedKeys[f.key] = true
	}
	groupOK := map[groupID]bool{}
	for _, f := range fixes {
		if f.state == relation.StateFalse {
			groupOK[groupID{f.key.Start, f.key.End}] = true
		}
	}
	// One pass over all groups: any validly timed, unfixed pair disables
	// its (start, end) group.
	for gk, gs := range groups {
		gid := groupID{gk.Start, gk.End}
		if ok, interesting := groupOK[gid]; !interesting || !ok {
			continue
		}
		if gs.merged.Empty() {
			continue
		}
		if !fixedKeys[gk] && !gs.merged.Equal(relation.NewSet(relation.StateFalse)) {
			groupOK[gid] = false
		}
	}
	added := 0
	var rest []fixEntry
	emittedGroup := map[groupID]bool{}
	for _, f := range fixes {
		gid := groupID{f.key.Start, f.key.End}
		if f.state == relation.StateFalse && groupOK[gid] {
			if !emittedGroup[gid] {
				emittedGroup[gid] = true
				e := &sdc.Exception{
					Kind:    sdc.FalsePath,
					From:    &sdc.PointList{},
					To:      &sdc.PointList{Pins: []sdc.ObjRef{mg.objRefFor(gid.end)}},
					Comment: "inferred by relationship refinement",
				}
				if gid.start != "*" && gid.start != "" {
					e.From = &sdc.PointList{Pins: []sdc.ObjRef{mg.objRefFor(gid.start)}}
				}
				mg.addFalsePath(e, stage, rule,
					"every clock pair timed through this path group mismatches with a false target")
				added++
			}
			continue
		}
		rest = append(rest, f)
	}
	fixes = rest
	if len(fixes) == 0 {
		return added
	}
	type aggKey struct {
		launch, capture string
		check           relation.CheckType
		state           relation.State
	}
	byAgg := map[aggKey][]fixEntry{}
	var order []aggKey
	for _, f := range fixes {
		k := aggKey{f.key.Launch, f.key.Capture, f.key.Check, f.state}
		if _, seen := byAgg[k]; !seen {
			order = append(order, k)
		}
		byAgg[k] = append(byAgg[k], f)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.launch != b.launch {
			return a.launch < b.launch
		}
		if a.capture != b.capture {
			return a.capture < b.capture
		}
		if a.check != b.check {
			return a.check < b.check
		}
		return a.state.String() < b.state.String()
	})

	emit := func(k aggKey, starts, ends []string) {
		e := fixException(k.state, k.check)
		e.From = &sdc.PointList{Clocks: []string{k.launch}}
		e.To = &sdc.PointList{Clocks: []string{k.capture}}
		if len(starts) > 0 {
			refs := make([]sdc.ObjRef, 0, len(starts))
			for _, s := range starts {
				refs = append(refs, mg.objRefFor(s))
			}
			e.Throughs = append(e.Throughs, &sdc.PointList{Pins: refs})
		}
		refs := make([]sdc.ObjRef, 0, len(ends))
		for _, s := range ends {
			refs = append(refs, mg.objRefFor(s))
		}
		e.Throughs = append(e.Throughs, &sdc.PointList{Pins: refs})
		mg.addFalsePath(e, stage, rule,
			"merged mode relaxes the most restrictive individual-mode relation")
		added++
	}

	for _, k := range order {
		entries := byAgg[k]
		starts := map[string]bool{}
		ends := map[string]bool{}
		pairs := map[[2]string]bool{}
		for _, f := range entries {
			start := f.key.Start
			if start == "*" {
				start = ""
			}
			starts[start] = true
			ends[f.key.End] = true
			pairs[[2]string{start, f.key.End}] = true
		}
		sortedKeys := func(m map[string]bool) []string {
			out := make([]string, 0, len(m))
			for s := range m {
				out = append(out, s)
			}
			sort.Strings(out)
			return out
		}
		ss, es := sortedKeys(starts), sortedKeys(ends)
		// Cartesian closure: a pair absent from the fixes may still be
		// safely covered when its path group either has no live paths
		// (constraining nothing is harmless) or is already false in the
		// merged mode. Only pairs the merged mode validly times exclude
		// their startpoint from the aggregate.
		closureSafe := func(s, e string) bool {
			if pairs[[2]string{s, e}] {
				return true
			}
			start := s
			if start == "" {
				start = "*"
			}
			gk := sta.RelKey{Start: start, End: e, Launch: k.launch, Capture: k.capture, Check: k.check}
			gs, exists := groups[gk]
			if !exists {
				return true // no such path group
			}
			return fixedKeys[gk] || !mergedTimes(gs)
		}
		var aggStarts, soloStarts []string
		for _, s := range ss {
			ok := true
			for _, e := range es {
				if !closureSafe(s, e) {
					ok = false
					break
				}
			}
			if ok {
				aggStarts = append(aggStarts, s)
			} else {
				soloStarts = append(soloStarts, s)
			}
		}
		if len(aggStarts) > 0 {
			if len(aggStarts) == 1 && aggStarts[0] == "" {
				emit(k, nil, es)
			} else {
				emit(k, aggStarts, es)
			}
		}
		// Startpoints with a validly timed pair keep exactly their own
		// endpoints, grouped by identical endpoint signature.
		bySig := map[string][]string{}
		sigEnds := map[string][]string{}
		var sigOrder []string
		for _, s := range soloStarts {
			var myEnds []string
			for _, e := range es {
				if pairs[[2]string{s, e}] {
					myEnds = append(myEnds, e)
				}
			}
			sig := strings.Join(myEnds, "\x00")
			if _, seen := bySig[sig]; !seen {
				sigOrder = append(sigOrder, sig)
				sigEnds[sig] = myEnds
			}
			bySig[sig] = append(bySig[sig], s)
		}
		for _, sig := range sigOrder {
			group := bySig[sig]
			if len(group) == 1 && group[0] == "" {
				emit(k, nil, sigEnds[sig])
			} else {
				emit(k, group, sigEnds[sig])
			}
		}
	}
	return added
}

// addFalsePath appends an inferred false path, first merging it with an
// existing setup/hold twin into a single both-sides exception. Stage and
// rule feed the provenance record for the inserted (or widened) exception.
func (mg *Merger) addFalsePath(e *sdc.Exception, stage, rule, detail string) {
	if e.SetupHold != sdc.MinMaxBoth {
		twin := e.Clone()
		if e.SetupHold == sdc.MaxOnly {
			twin.SetupHold = sdc.MinOnly
		} else {
			twin.SetupHold = sdc.MaxOnly
		}
		twinKey := twin.Key()
		for i, have := range mg.merged.Exceptions {
			if have.Key() == twinKey {
				both := e.Clone()
				both.SetupHold = sdc.MinMaxBoth
				mg.merged.Exceptions[i] = both
				mg.memo.pending = append(mg.memo.pending, both)
				mg.provException(stage, rule, both, "", detail+" (merged with setup/hold twin)")
				return
			}
		}
	}
	mg.merged.Exceptions = append(mg.merged.Exceptions, e)
	mg.memo.pending = append(mg.memo.pending, e)
	mg.Report.AddedFalsePaths++
	mg.provException(stage, rule, e, "", detail)
}

// rebuildMergedForRefine is the refinement loop's merged-context rebuild.
// After rebuilding it transfers the previous context's memoized relation
// results for every endpoint NOT forward-reachable from the pins of the
// exceptions added this iteration: an exception-only rebuild changes
// nothing but exceptions, and a new exception can only complete at
// endpoints its pins reach, so relation results everywhere else are
// untouched. The invalidated endpoints also lose their merged
// fingerprints in the prune memo.
func (mg *Merger) rebuildMergedForRefine() error {
	prev := mg.mctx
	pending := mg.memo.pending
	mg.memo.pending = nil
	if err := mg.rebuildMergedExcOnly(); err != nil {
		return err
	}
	if mg.opt.Slow.NoCacheTransfer {
		mg.memo.dropMerged(nil)
		return nil
	}
	affected := mg.affectedEndpoints(pending)
	if affected == nil {
		mg.memo.dropMerged(nil)
		return nil
	}
	mg.mctx.AdoptRelationResults(prev, func(end graph.NodeID) bool { return !affected[end] })
	mg.memo.dropMerged(affected)
	return nil
}

// affectedEndpoints marks the nodes forward-reachable from the pins of
// the given exceptions. It returns nil when the effect cannot be bounded
// (an exception that names no graph pins — e.g. clock-to-clock scoping —
// can complete anywhere) and the caller must invalidate everything.
func (mg *Merger) affectedEndpoints(excs []*sdc.Exception) []bool {
	var seeds []graph.NodeID
	for _, e := range excs {
		pins := 0
		collect := func(pl *sdc.PointList) bool {
			if pl == nil {
				return true
			}
			for _, p := range pl.Pins {
				id, ok := mg.g.NodeByName(p.Name)
				if !ok {
					return false
				}
				seeds = append(seeds, id)
				pins++
			}
			return true
		}
		if !collect(e.From) {
			return nil
		}
		for _, t := range e.Throughs {
			if !collect(t) {
				return nil
			}
		}
		if !collect(e.To) {
			return nil
		}
		if pins == 0 {
			return nil
		}
	}
	if len(seeds) == 0 {
		// No new exceptions at all: nothing is invalidated.
		return make([]bool, mg.g.NumNodes())
	}
	return mg.g.ForwardReach(seeds)
}

// pass3 refines one ambiguous (start, end) pair at through-point
// granularity.
func (mg *Merger) pass3(startName, endName string, perModeTR [][]sta.ThroughRel, mergedRels []sta.ThroughRel) (int, error) {
	startID, ok1 := mg.g.NodeByName(startName)
	endID, ok2 := mg.g.NodeByName(endName)
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("internal: pass-3 pair %s→%s not in graph", startName, endName)
	}
	// Through relations per mode and merged, indexed by node.
	type nodeStates struct {
		perMode []map[sta.RelKey]relation.Set
		merged  map[sta.RelKey]relation.Set
		modeAmb []bool
		mergAmb bool
	}
	byNode := map[graph.NodeID]*nodeStates{}
	get := func(n graph.NodeID) *nodeStates {
		ns := byNode[n]
		if ns == nil {
			ns = &nodeStates{perMode: make([]map[sta.RelKey]relation.Set, len(mg.ctxs)),
				modeAmb: make([]bool, len(mg.ctxs))}
			byNode[n] = ns
		}
		return ns
	}
	for m := range mg.ctxs {
		for _, tr := range perModeTR[m] {
			ns := get(tr.Node)
			mapped := make(map[sta.RelKey]relation.Set, len(tr.States))
			for k, set := range tr.States {
				mapped[mg.mapRelKey(m, k)] = set
			}
			ns.perMode[m] = mapped
			ns.modeAmb[m] = tr.Ambiguous
		}
	}
	for _, tr := range mergedRels {
		ns := get(tr.Node)
		ns.merged = tr.States
		ns.mergAmb = tr.Ambiguous
	}

	// Walk cone nodes in topological order; collect the frontier of
	// mismatching nodes (not dominated by an already-chosen node) per
	// (launch, capture, check).
	cone := mg.g.ConeBetween(startID, endID)
	type fixKey struct {
		launch, capture string
		check           relation.CheckType
		state           relation.State
	}
	chosen := map[fixKey][]graph.NodeID{}
	var chosenOrder []fixKey
	covered := map[fixKey][]bool{} // per key: nodes already downstream of a fix
	// Clock pairs the merged mode times anywhere in this cone; when only
	// one exists, emitted false paths can skip the clock scoping.
	allPairs := map[[2]string]bool{}

	markCovered := func(k fixKey, n graph.NodeID) {
		reach := mg.g.ForwardReach([]graph.NodeID{n})
		cov := covered[k]
		if cov == nil {
			cov = make([]bool, mg.g.NumNodes())
			covered[k] = cov
		}
		for i, r := range reach {
			if r {
				cov[i] = true
			}
		}
	}

	for _, n := range cone {
		if n == startID || n == endID {
			continue
		}
		ns := byNode[n]
		if ns == nil {
			continue
		}
		// Align keys across modes and merged for this node, in sorted
		// order so fix emission (and thus merged output and provenance
		// records) stays deterministic across runs. Every key at a node
		// shares this pair's Start/End, so the canonical RelKey order is
		// exactly launch/capture/check order; duplicates from different
		// maps land adjacent and compact away.
		var sortedKeys []sta.RelKey
		for _, rels := range ns.perMode {
			for k := range rels {
				sortedKeys = append(sortedKeys, k)
			}
		}
		for k := range ns.merged {
			sortedKeys = append(sortedKeys, k)
		}
		sta.SortRelKeys(sortedKeys)
		sortedKeys = slices.Compact(sortedKeys)
		for _, k := range sortedKeys {
			covKey := fixKey{launch: k.Launch, capture: k.Capture, check: k.Check}
			if ns.merged != nil && !ns.merged[k].Empty() {
				allPairs[[2]string{k.Launch, k.Capture}] = true
			}
			if cov := covered[covKey]; cov != nil && cov[n] {
				continue
			}
			// Target over scenario contexts at this node.
			states := make([]relation.State, 0, len(mg.ctxs))
			ambiguous := false
			for m := range mg.ctxs {
				var set relation.Set
				if ns.perMode[m] != nil {
					set = ns.perMode[m][k]
				}
				if set.Empty() {
					states = append(states, relation.StateFalse)
					continue
				}
				st, single := set.Single()
				if !single {
					ambiguous = true
					break
				}
				states = append(states, st)
			}
			if ambiguous || ns.mergAmb {
				continue // finer than pass 3; no fix at this node
			}
			target := relation.MergeTarget(states)
			var mergedSet relation.Set
			if ns.merged != nil {
				mergedSet = ns.merged[k]
			}
			if mergedSet.Empty() {
				continue // merged does not time these paths
			}
			ms, single := mergedSet.Single()
			if !single {
				continue // reconverging subclasses; a later node resolves them
			}
			if ms == target {
				continue
			}
			if target != relation.StateFalse && !relation.Relaxed(ms, target) {
				mg.Report.PessimisticGroups++
				continue
			}
			// False target or relaxed mismatch: constrain paths through
			// this node to the target state.
			mg.Report.Pass3Mismatch++
			fk := fixKey{k.Launch, k.Capture, k.Check, target}
			if len(chosen[fk]) == 0 {
				chosenOrder = append(chosenOrder, fk)
			}
			chosen[fk] = append(chosen[fk], n)
			markCovered(covKey, n)
		}
	}

	added := 0
	for _, fk := range chosenOrder {
		nodes := chosen[fk]
		e := fixException(fk.state, fk.check)
		e.Comment = "inferred by pass-3 refinement"
		e.From = &sdc.PointList{Pins: []sdc.ObjRef{mg.objRefFor(startName)}}
		e.Throughs = []*sdc.PointList{{Pins: mg.nodeRefs(nodes)}}
		e.To = &sdc.PointList{Pins: []sdc.ObjRef{mg.objRefFor(endName)}}
		if len(allPairs) > 1 {
			// Several clock pairs share the cone: keep the fix scoped to
			// its own launch/capture clocks (pins move into throughs).
			e.Throughs = append([]*sdc.PointList{{Pins: e.From.Pins}}, e.Throughs...)
			e.Throughs = append(e.Throughs, &sdc.PointList{Pins: e.To.Pins})
			e.From = &sdc.PointList{Clocks: []string{fk.launch}}
			e.To = &sdc.PointList{Clocks: []string{fk.capture}}
		}
		mg.addFalsePath(e, "data_refine/pass3", "§3.2 pass-3 through-point refinement",
			"mismatch localized to through points inside the start-end cone")
		added++
	}
	return added, nil
}

// objRefFor builds a pin or port reference for a flat name.
func (mg *Merger) objRefFor(name string) sdc.ObjRef {
	if mg.design.PortByName(name) != nil {
		return sdc.ObjRef{Kind: sdc.PortObj, Name: name}
	}
	return sdc.ObjRef{Kind: sdc.PinObj, Name: name}
}
